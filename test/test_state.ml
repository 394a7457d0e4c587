(* Tests for deployment state and the version store. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Version_store = Cloudless_state.Version_store
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let rs ?(rtype = "aws_vpc") ?(region = "us-east-1") ?(deps = []) name cloud_id
    attrs =
  {
    State.addr = Addr.make ~rtype ~rname:name ();
    cloud_id;
    rtype;
    region;
    attrs = Smap.of_seq (List.to_seq attrs);
    deps;
  }

let test_add_find_remove () =
  let s = State.empty in
  check int_ "serial 0" 0 (State.serial s);
  let s = State.add s (rs "main" "vpc-1" [ ("cidr_block", Value.Vstring "10.0.0.0/16") ]) in
  check int_ "serial bumped" 1 (State.serial s);
  check int_ "size" 1 (State.size s);
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  (match State.find_opt s addr with
  | Some r -> check string_ "cloud id" "vpc-1" r.State.cloud_id
  | None -> Alcotest.fail "missing");
  let s = State.remove s addr in
  check int_ "empty" 0 (State.size s);
  check int_ "serial bumped again" 2 (State.serial s)

let test_lookup_for_eval () =
  let s = State.add State.empty (rs "main" "vpc-1" [ ("id", Value.Vstring "vpc-1") ]) in
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  match State.lookup s addr with
  | Some attrs -> check bool_ "id present" true (Smap.mem "id" attrs)
  | None -> Alcotest.fail "lookup failed"

let test_find_by_cloud_id () =
  let s = State.add State.empty (rs "main" "vpc-42" []) in
  match State.find_by_cloud_id s "vpc-42" with
  | Some r -> check string_ "addr" "aws_vpc.main" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "not found"

let test_cloud_id_index_maintenance () =
  let addr_a = Addr.make ~rtype:"aws_vpc" ~rname:"a" () in
  (* removal drops the reverse-index entry *)
  let s = State.add State.empty (rs "a" "vpc-1" []) in
  let s = State.remove s addr_a in
  check bool_ "gone after remove" true (State.find_by_cloud_id s "vpc-1" = None);
  (* re-adding an addr under a new cloud id retires the old entry *)
  let s = State.add State.empty (rs "a" "vpc-old" []) in
  let s = State.add s (rs "a" "vpc-new" []) in
  check bool_ "old id gone" true (State.find_by_cloud_id s "vpc-old" = None);
  (match State.find_by_cloud_id s "vpc-new" with
  | Some r ->
      check string_ "new id resolves" "aws_vpc.a" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "new id missing");
  (* a cloud id taken over by another address survives the old owner's
     removal *)
  let s = State.add State.empty (rs "a" "vpc-1" []) in
  let s = State.add s (rs "b" "vpc-1" []) in
  let s = State.remove s addr_a in
  (match State.find_by_cloud_id s "vpc-1" with
  | Some r ->
      check string_ "b owns it" "aws_vpc.b" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "takeover entry lost");
  (* deserialized states answer reverse lookups too *)
  let s =
    State.of_string (State.to_string (State.add State.empty (rs "a" "vpc-9" [])))
  in
  match State.find_by_cloud_id s "vpc-9" with
  | Some r ->
      check string_ "after roundtrip" "aws_vpc.a" (Addr.to_string r.State.addr)
  | None -> Alcotest.fail "roundtrip lost index"

let test_orphans () =
  let s =
    State.add
      (State.add State.empty (rs "a" "vpc-1" []))
      (rs "b" "vpc-2" [])
  in
  let keep = [ Addr.make ~rtype:"aws_vpc" ~rname:"a" () ] in
  let orphans = State.orphans s keep in
  check int_ "one orphan" 1 (List.length orphans);
  check string_ "it's b" "aws_vpc.b" (Addr.to_string (List.hd orphans))

let test_serialization_roundtrip () =
  let s =
    State.add State.empty
      (rs "main" "vpc-1"
         [
           ("cidr_block", Value.Vstring "10.0.0.0/16");
           ("count", Value.Vint 3);
           ("enabled", Value.Vbool true);
           ("tags", Value.of_assoc [ ("env", Value.Vstring "prod") ]);
           ("zones", Value.Vlist [ Value.Vstring "a"; Value.Vstring "b" ]);
         ])
  in
  let s =
    State.add s
      (rs ~rtype:"aws_subnet"
         ~deps:[ Addr.make ~rtype:"aws_vpc" ~rname:"main" () ]
         "sub" "subnet-9" [ ("vpc_id", Value.Vstring "vpc-1") ])
  in
  let s = State.set_outputs s [ ("vpc_id", Value.Vstring "vpc-1") ] in
  let text = State.to_string s in
  let s' = State.of_string text in
  check int_ "size preserved" (State.size s) (State.size s');
  check int_ "serial preserved" (State.serial s) (State.serial s');
  let addr = Addr.make ~rtype:"aws_vpc" ~rname:"main" () in
  let r = Option.get (State.find_opt s' addr) in
  check bool_ "attrs preserved" true
    (Value.equal (Value.Vint 3) (Smap.find "count" r.State.attrs));
  let sub = Option.get (State.find_opt s' (Addr.make ~rtype:"aws_subnet" ~rname:"sub" ())) in
  check int_ "deps preserved" 1 (List.length sub.State.deps);
  check int_ "outputs preserved" 1 (List.length (State.outputs s'))

let test_serialization_sanitizes_unknowns () =
  let s =
    State.add State.empty (rs "main" "vpc-1" [ ("x", Value.unknown "a.b") ])
  in
  let s' = State.of_string (State.to_string s) in
  let r = Option.get (State.find_opt s' (Addr.make ~rtype:"aws_vpc" ~rname:"main" ())) in
  check bool_ "unknown became null" true
    (Value.equal Value.Vnull (Smap.find "x" r.State.attrs))

let test_diff () =
  let a =
    State.add
      (State.add State.empty (rs "x" "vpc-1" [ ("v", Value.Vint 1) ]))
      (rs "y" "vpc-2" [])
  in
  let b =
    State.add
      (State.add State.empty (rs "x" "vpc-1" [ ("v", Value.Vint 2) ]))
      (rs "z" "vpc-3" [])
  in
  let d = State.diff a b in
  check int_ "one added" 1 (List.length d.State.added);
  check int_ "one removed" 1 (List.length d.State.removed);
  check int_ "one modified" 1 (List.length d.State.modified);
  check bool_ "self diff empty" true (State.diff_is_empty (State.diff a a))

(* ------------------------------------------------------------------ *)
(* State file: the writer's reference, corrupt files, round trips      *)
(* ------------------------------------------------------------------ *)

(* The state file as the whole-file AST printer wrote it: every value
   through [Codec.value_to_expr], the blocks through
   [Printer.config_to_string].  [State.to_string] must produce these
   bytes. *)
module Reference = struct
  let attr name value = { Ast.aname = name; avalue = value; aspan = Loc.dummy }

  let block btype labels attrs =
    {
      Ast.btype;
      labels;
      bbody = { Ast.attrs; blocks = [] };
      bspan = Loc.dummy;
    }

  let resource_to_block (r : State.resource_state) =
    block "instance"
      [ Addr.to_string r.State.addr ]
      [
        attr "cloud_id" (Ast.string_lit r.State.cloud_id);
        attr "type" (Ast.string_lit r.State.rtype);
        attr "region" (Ast.string_lit r.State.region);
        attr "attributes"
          (Codec.value_to_expr
             (Value.Vmap (Smap.map State.sanitize r.State.attrs)));
        attr "depends"
          (Ast.mk
             (Ast.ListLit
                (List.map
                   (fun d -> Ast.string_lit (Addr.to_string d))
                   r.State.deps)));
      ]

  let to_string st =
    let header =
      block "state" [] [ attr "serial" (Ast.mk (Ast.Int (State.serial st))) ]
    in
    let outputs =
      List.map
        (fun (name, v) ->
          block "output" [ name ]
            [ attr "value" (Codec.value_to_expr (State.sanitize v)) ])
        (State.outputs st)
    in
    Printer.config_to_string
      {
        Ast.attrs = [];
        blocks =
          (header :: List.map resource_to_block (State.resources st)) @ outputs;
      }
end

let instance_block ?(addr = "aws_vpc.a") ?(cloud_id = {|"vpc-1"|})
    ?(rtype = {|"aws_vpc"|}) ?(region = {|"us-east-1"|})
    ?(attributes = "{ cidr_block = \"10.0.0.0/16\" }") ?(depends = "[]") () =
  String.concat ""
    [
      Printf.sprintf "instance %S {\n" addr;
      (match cloud_id with
      | "" -> ""
      | v -> Printf.sprintf "  cloud_id   = %s\n" v);
      Printf.sprintf "  type       = %s\n" rtype;
      Printf.sprintf "  region     = %s\n" region;
      Printf.sprintf "  attributes = %s\n" attributes;
      Printf.sprintf "  depends    = %s\n" depends;
      "}\n";
    ]

let state_file ?(serial = "3") blocks =
  String.concat "\n" (Printf.sprintf "state {\n  serial = %s\n}\n" serial :: blocks)

(* [of_string src] fails with a located corrupt-state error whose span
   starts on [line] and lies inside the block that starts on
   [block_line]. *)
let expect_corrupt ~name ~line ~block_line src =
  match State.of_string ~file:"s.cls" src with
  | _ -> Alcotest.failf "%s: loaded" name
  | exception Cloudless_error.Error d ->
      let open Cloudless_error.Diagnostic in
      check bool_ (name ^ ": stage") true (d.stage = State_io);
      check string_ (name ^ ": code") "corrupt-state" d.code;
      check string_ (name ^ ": file") "s.cls" d.span.Loc.file;
      check int_ (name ^ ": line") line d.span.Loc.start_pos.Loc.line;
      let block_end =
        (* the block's closing brace: the first line from it that is "}" *)
        let lines = Array.of_list (String.split_on_char '\n' src) in
        let rec close l = if lines.(l - 1) = "}" then l else close (l + 1) in
        close block_line
      in
      check bool_
        (Printf.sprintf "%s: span inside the block (lines %d-%d)" name
           block_line block_end)
        true
        (d.span.Loc.start_pos.Loc.line >= block_line
        && d.span.Loc.end_pos.Loc.line <= block_end)
  | exception e ->
      Alcotest.failf "%s: raised %s, not a corrupt-state error" name
        (Printexc.to_string e)

(* Every way a well-formed HCL file can fail to be a state: the first
   block (lines 5-11) is good, the second (from line 13) is not. *)
let test_corrupt_state_table () =
  let second_block = 13 in
  List.iter
    (fun (name, bad, line) ->
      let src = state_file [ instance_block (); bad ] in
      expect_corrupt ~name ~line ~block_line:second_block src)
    [
      ("bad address", instance_block ~addr:"nodot" (), second_block);
      ( "attributes not an object",
        instance_block ~addr:"aws_vpc.b" ~attributes:"[1, 2]" (),
        second_block );
      ( "depends not a list",
        instance_block ~addr:"aws_vpc.b" ~depends:{|"aws_vpc.a"|} (),
        second_block );
      ( "bad dependency address",
        instance_block ~addr:"aws_vpc.b" ~depends:{|["nodot"]|} (),
        second_block );
      ( "missing cloud_id",
        instance_block ~addr:"aws_vpc.b" ~cloud_id:"" (),
        second_block );
      ( "non-literal type",
        instance_block ~addr:"aws_vpc.b" ~rtype:"var.x" (),
        second_block + 2 );
      (* mistyped literals are reported at their attribute *)
      ( "cloud_id a list",
        instance_block ~addr:"aws_vpc.b" ~cloud_id:"[1]" (),
        second_block + 1 );
      ( "type a list",
        instance_block ~addr:"aws_vpc.b" ~rtype:{|["aws_vpc"]|} (),
        second_block + 2 );
      ( "region a list",
        instance_block ~addr:"aws_vpc.b" ~region:{|["us-east-1"]|} (),
        second_block + 3 );
      ( "dependency a list",
        instance_block ~addr:"aws_vpc.b" ~depends:"[[1]]" (),
        second_block + 5 );
      ("unexpected block type", "resource \"aws_vpc\" \"b\" {\n}\n", second_block);
      ("duplicate address", instance_block (), second_block);
    ];
  expect_corrupt ~name:"serial not an integer" ~line:2 ~block_line:1
    (state_file ~serial:{|"x"|} [ instance_block () ]);
  (* rows out of address order are checked against every address seen *)
  expect_corrupt ~name:"duplicate address out of order" ~line:21 ~block_line:21
    (state_file
       [
         instance_block ~addr:"aws_vpc.b" ();
         instance_block ();
         instance_block ~addr:"aws_vpc.b" ();
       ])

(* Blocks are decoded as they are parsed, so a decode error in row 2
   wins over a syntax error in row 9. *)
let test_corrupt_state_source_order () =
  let row i =
    instance_block ~addr:(Printf.sprintf "aws_vpc.r%d" i)
      ?attributes:(if i = 2 then Some "[1]" else None)
      ?depends:(if i = 9 then Some "[" else None)
      ()
  in
  let src = state_file (List.init 10 row) in
  (* the state block takes lines 1-4, and row i starts on line 5 + 8i *)
  expect_corrupt ~name:"decode error before a syntax error" ~line:21
    ~block_line:21 src

let sample_state n =
  let row i =
    rs ~rtype:"aws_subnet"
      ~deps:(if i = 0 then [] else [ Addr.make ~rtype:"aws_vpc" ~rname:"main" () ])
      (Printf.sprintf "s%d" i) (Printf.sprintf "subnet-%d" i)
      [
        ("cidr_block", Value.Vstring (Printf.sprintf "10.0.%d.0/24" i));
        ("vpc_id", Value.Vstring "vpc-1");
      ]
  in
  let st =
    List.fold_left State.add
      (State.add State.empty (rs "main" "vpc-1" [ ("id", Value.Vstring "vpc-1") ]))
      (List.init n row)
  in
  State.set_outputs st [ ("vpc", Value.Vstring "vpc-1") ]

(* A hand-edited file may list its rows in any order. *)
let test_shuffled_rows_load_same () =
  let st = sample_state 40 in
  let text = State.to_string st in
  let blocks =
    (* the file's blocks, separated by blank lines *)
    List.fold_left
      (fun acc line ->
        match (line, acc) with
        | "", _ -> [] :: acc
        | _, cur :: rest -> (line :: cur) :: rest
        | _, [] -> [ [ line ] ])
      [] (String.split_on_char '\n' text)
    |> List.filter (( <> ) [])
    |> List.rev_map (fun ls -> String.concat "\n" (List.rev ls) ^ "\n")
  in
  let head = List.hd blocks and rest = List.tl blocks in
  let rows, outputs =
    List.partition (String.starts_with ~prefix:"instance") rest
  in
  let rng = Random.State.make [| 13 |] in
  let shuffled =
    List.map snd
      (List.sort compare
         (List.map (fun b -> (Random.State.bits rng, b)) rows))
  in
  check bool_ "rows reordered" true (shuffled <> rows);
  let loaded =
    State.of_string (String.concat "\n" ((head :: shuffled) @ outputs))
  in
  check string_ "same state" text (State.to_string loaded);
  check int_ "same serial" (State.serial st) (State.serial loaded)

(* Random states: strings that need escaping, non-identifier keys,
   integral and fractional numbers, nested lists and maps, unknowns,
   dependencies and outputs. *)
let gen_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [
        oneofl [ "\""; "\\"; "\n"; "\t"; "${"; "$"; "{"; "}"; " "; "%{" ];
        string_size ~gen:(char_range 'a' 'z') (int_range 0 4);
        string_size ~gen:printable (int_range 0 3);
      ]
  in
  map (String.concat "") (list_size (int_range 0 4) piece)

let gen_ident =
  QCheck.Gen.(
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'z')
      (string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '_'; '-' ]) (int_range 0 5)))

let gen_key = QCheck.Gen.(oneof [ gen_ident; gen_string ])

let gen_value =
  let open QCheck.Gen in
  sized_size (int_range 0 3)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Value.Vnull;
               map (fun b -> Value.Vbool b) bool;
               map (fun i -> Value.Vint i) (int_range (-1000) 1000);
               (* quarters print exactly; integral ones print as ints *)
               map (fun q -> Value.Vfloat (float_of_int q /. 4.)) (int_range (-400) 400);
               map (fun s -> Value.Vstring s) gen_string;
               map (fun p -> Value.Vunknown p) gen_ident;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (3, leaf);
               (1, map (fun vs -> Value.Vlist vs) (list_size (int_range 0 3) (self (n - 1))));
               ( 1,
                 map
                   (fun kvs -> Value.of_assoc kvs)
                   (list_size (int_range 0 3) (pair gen_key (self (n - 1)))) );
             ])

let gen_addr =
  let open QCheck.Gen in
  map4
    (fun module_path data (rtype, rname) key ->
      Addr.make ~module_path ~mode:(if data then Addr.Data else Addr.Managed)
        ~key ~rtype ~rname ())
    (list_size (int_range 0 1) gen_ident)
    (map (fun k -> k = 0) (int_bound 4))
    (pair gen_ident gen_ident)
    (oneof
       [
         return Addr.Knone;
         map (fun i -> Addr.Kint i) (int_bound 5);
         map (fun s -> Addr.Kstr s) gen_string;
       ])

let gen_state =
  let open QCheck.Gen in
  let row =
    map3
      (fun addr (cloud_id, rtype, region) (attrs, deps) ->
        {
          State.addr;
          cloud_id;
          rtype;
          region;
          attrs = Smap.of_seq (List.to_seq attrs);
          deps;
        })
      gen_addr
      (triple gen_string gen_ident gen_string)
      (pair
         (list_size (int_range 0 4) (pair gen_key gen_value))
         (list_size (int_range 0 2) gen_addr))
  in
  map3
    (fun rows outputs serial ->
      State.with_serial
        (State.set_outputs (List.fold_left State.add State.empty rows) outputs)
        serial)
    (list_size (int_range 0 6) row)
    (list_size (int_range 0 2) (pair (string_size ~gen:printable (int_range 1 6)) gen_value))
    (int_bound 1000)

let same_rows (a : State.resource_state) (b : State.resource_state) =
  Addr.equal a.State.addr b.State.addr
  && a.State.cloud_id = b.State.cloud_id
  && a.State.rtype = b.State.rtype
  && a.State.region = b.State.region
  && Smap.equal Value.equal (Smap.map State.sanitize a.State.attrs) b.State.attrs
  && List.equal Addr.equal a.State.deps b.State.deps

let prop_state_round_trip =
  QCheck.Test.make ~count:300
    ~name:"state file: to_string is the AST printer's bytes and reads back"
    (QCheck.make ~print:State.to_string gen_state)
    (fun st ->
      let text = State.to_string st in
      let back = State.of_string text in
      text = Reference.to_string st
      && State.serial back = State.serial st
      && List.equal same_rows (State.resources st) (State.resources back)
      && List.equal
           (fun (n, v) (n', v') -> n = n' && Value.equal (State.sanitize v) v')
           (State.outputs st) (State.outputs back))

(* The restore the session did before it built the state in one pass:
   one [State.add] per row. *)
let reference_cloud_from_state state ~seed =
  let module Cloud = Cloudless_sim.Cloud in
  let cloud =
    Cloud.create ~config:(Cloudless_schema.Cloud_rules.config_with_checks ()) ~seed ()
  in
  let id_map = Hashtbl.create 16 in
  let created =
    List.map
      (fun (r : State.resource_state) ->
        let cloud_id =
          Cloud.create_oob cloud ~script:"state-restore" ~rtype:r.State.rtype
            ~region:r.State.region ~attrs:r.State.attrs
        in
        Hashtbl.replace id_map r.State.cloud_id cloud_id;
        (r, cloud_id))
      (State.resources state)
  in
  let rec remap (v : Value.t) : Value.t =
    match v with
    | Value.Vstring s -> (
        match Hashtbl.find_opt id_map s with
        | Some fresh -> Value.Vstring fresh
        | None -> v)
    | Value.Vlist vs -> Value.Vlist (List.map remap vs)
    | Value.Vmap m -> Value.Vmap (Smap.map remap m)
    | v -> v
  in
  let remapped =
    List.fold_left
      (fun acc ((r : State.resource_state), cloud_id) ->
        let attrs = Smap.map remap r.State.attrs in
        Cloud.restore_attrs cloud ~cloud_id ~attrs;
        let attrs =
          match Cloud.lookup cloud cloud_id with
          | Some live -> live.Cloud.attrs
          | None -> attrs
        in
        State.add acc { r with State.cloud_id; attrs })
      State.empty created
  in
  (cloud, remapped)

let test_restore_matches_reference () =
  let module Cloud = Cloudless_sim.Cloud in
  let st = sample_state 30 in
  let cloud, restored = Cloudless.Session.cloud_from_state st ~seed:5 in
  let ref_cloud, ref_restored = reference_cloud_from_state st ~seed:5 in
  check string_ "state bytes" (State.to_string ref_restored)
    (State.to_string restored);
  check int_ "serial is the row count" (State.size st) (State.serial restored);
  let resources c =
    List.map
      (fun (r : Cloud.resource) ->
        (r.Cloud.cloud_id, r.Cloud.rtype, r.Cloud.region, Value.Vmap r.Cloud.attrs))
      (Cloud.all_resources c)
  in
  check int_ "cloud size" (State.size st) (List.length (resources cloud));
  check bool_ "cloud resources" true
    (List.equal
       (fun (i, t, r, a) (i', t', r', a') ->
         i = i' && t = t' && r = r' && Value.equal a a')
       (resources ref_cloud) (resources cloud))

(* ------------------------------------------------------------------ *)
(* Version store ("time machine")                                      *)
(* ------------------------------------------------------------------ *)

let test_version_checkpoint_lineage () =
  let vs = Version_store.create () in
  check (Alcotest.option int_) "no head" None (Version_store.head vs);
  let v0 =
    Version_store.checkpoint vs ~time:0. ~description:"init" ~config_src:"a"
      ~state:State.empty
  in
  let s1 = State.add State.empty (rs "m" "vpc-1" []) in
  let v1 =
    Version_store.checkpoint vs ~time:10. ~description:"add vpc" ~config_src:"b"
      ~state:s1
  in
  check (Alcotest.option int_) "head at v1" (Some v1) (Version_store.head vs);
  let lineage = Version_store.lineage vs v1 in
  check int_ "two versions in lineage" 2 (List.length lineage);
  check int_ "v0 parent of v1" v0
    (Option.get (Option.get (Version_store.find vs v1)).Version_store.parent)

let test_version_diff_and_reset () =
  let vs = Version_store.create () in
  let v0 =
    Version_store.checkpoint vs ~time:0. ~description:"empty" ~config_src:""
      ~state:State.empty
  in
  let s1 = State.add State.empty (rs "m" "vpc-1" []) in
  let v1 =
    Version_store.checkpoint vs ~time:1. ~description:"one" ~config_src:""
      ~state:s1
  in
  (match Version_store.diff_versions vs ~from_id:v0 ~to_id:v1 with
  | Ok d -> check int_ "one added" 1 (List.length d.State.added)
  | Error e -> Alcotest.fail e);
  (match Version_store.reset_head vs v0 with
  | Ok () -> check (Alcotest.option int_) "head moved" (Some v0) (Version_store.head vs)
  | Error e -> Alcotest.fail e);
  match Version_store.reset_head vs 999 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unknown version error"

let suites =
  [
    ( "state",
      [
        Alcotest.test_case "add/find/remove" `Quick test_add_find_remove;
        Alcotest.test_case "lookup for eval" `Quick test_lookup_for_eval;
        Alcotest.test_case "find by cloud id" `Quick test_find_by_cloud_id;
        Alcotest.test_case "cloud id index maintenance" `Quick
          test_cloud_id_index_maintenance;
        Alcotest.test_case "orphans" `Quick test_orphans;
        Alcotest.test_case "serialization round-trip" `Quick test_serialization_roundtrip;
        Alcotest.test_case "unknowns sanitized" `Quick test_serialization_sanitizes_unknowns;
        Alcotest.test_case "diff" `Quick test_diff;
        Alcotest.test_case "corrupt state files" `Quick test_corrupt_state_table;
        Alcotest.test_case "corrupt state: first error in source wins" `Quick
          test_corrupt_state_source_order;
        Alcotest.test_case "shuffled rows load the same" `Quick
          test_shuffled_rows_load_same;
        QCheck_alcotest.to_alcotest prop_state_round_trip;
        Alcotest.test_case "restore matches the per-row reference" `Quick
          test_restore_matches_reference;
      ] );
    ( "state.versions",
      [
        Alcotest.test_case "checkpoint & lineage" `Quick test_version_checkpoint_lineage;
        Alcotest.test_case "diff & reset" `Quick test_version_diff_and_reset;
      ] );
  ]
