(* Seeded inputs for the apply workloads, and the references their
   outputs are checked against.

   The configuration is [stacks] independent service stacks with the
   topology of [Workload.fleet] — a VPC; per group a subnet, a security
   group, a target group and [count = 6] instances; EIPs padding the
   stack to its exact size — with every name prefixed [f<k>_] and each
   instance group's [instance_type] drawn from the seed.  The text is
   generated here rather than by [Workload.fleet] because that
   generator has neither prefixes nor per-group types, and because the
   expected state must come from these parameters, not from the
   program under test. *)

let instance_types = [| "t3.small"; "t3.medium"; "t3.large"; "t3.xlarge" |]
let instances_per_group = 6
let group_size = 3 + instances_per_group

type fleet = {
  stacks : int;
  per_stack : int;  (** resources per stack *)
  types : string array array;  (** [types.(k).(g)]: group g of stack k *)
}

let groups_per_stack f = (f.per_stack - 1) / group_size
let pad_per_stack f = f.per_stack - 1 - (groups_per_stack f * group_size)
let resources f = f.stacks * f.per_stack

let make ~seed ~stacks ~resources =
  if resources mod stacks <> 0 then invalid_arg "Gen.make: uneven stacks";
  let per_stack = resources / stacks in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let groups = (per_stack - 1) / group_size in
  let pick () = instance_types.(Random.State.int rng (Array.length instance_types)) in
  { stacks; per_stack; types = Array.init stacks (fun _ -> Array.init groups (fun _ -> pick ())) }

(* The seeded edit: [n] distinct instance groups move to the next
   instance type in the rotation.  Returns the edited fleet and the
   edited (stack, group) pairs. *)
let edit ~seed f ~n =
  let rng = Random.State.make [| seed; 0xed17 |] in
  let groups = groups_per_stack f in
  let total = f.stacks * groups in
  if n > total then invalid_arg "Gen.edit: too many groups";
  let chosen = Hashtbl.create n in
  while Hashtbl.length chosen < n do
    Hashtbl.replace chosen (Random.State.int rng total) ()
  done;
  let types = Array.map Array.copy f.types in
  let edited =
    Hashtbl.fold (fun i () acc -> (i / groups, i mod groups) :: acc) chosen []
    |> List.sort compare
  in
  List.iter
    (fun (k, g) ->
      let rec idx i = if instance_types.(i) = types.(k).(g) then i else idx (i + 1) in
      types.(k).(g) <-
        instance_types.((idx 0 + 1) mod Array.length instance_types))
    edited;
  ({ f with types }, edited)

let to_hcl f =
  let b = Buffer.create (f.stacks * f.per_stack * 120) in
  for k = 0 to f.stacks - 1 do
    let p = Printf.sprintf "f%d_" k in
    Printf.bprintf b
      "resource \"aws_vpc\" \"%sfleet\" {\n\
      \  cidr_block = \"10.0.0.0/8\"\n\
      \  region     = \"us-east-1\"\n\
       }\n"
      p;
    for g = 0 to groups_per_stack f - 1 do
      Printf.bprintf b
        "\n\
         resource \"aws_subnet\" \"%sg%d\" {\n\
        \  vpc_id     = aws_vpc.%sfleet.id\n\
        \  cidr_block = \"10.%d.%d.%d/26\"\n\
        \  region     = \"us-east-1\"\n\
         }\n\n\
         resource \"aws_security_group\" \"%sg%d\" {\n\
        \  name   = \"%sg%d-sg\"\n\
        \  vpc_id = aws_vpc.%sfleet.id\n\
        \  region = \"us-east-1\"\n\
         }\n\n\
         resource \"aws_lb_target_group\" \"%sg%d\" {\n\
        \  name     = \"%sg%d-tg\"\n\
        \  port     = %d\n\
        \  protocol = \"tcp\"\n\
        \  vpc_id   = aws_vpc.%sfleet.id\n\
        \  region   = \"us-east-1\"\n\
         }\n\n\
         resource \"aws_instance\" \"%sg%d\" {\n\
        \  count                  = %d\n\
        \  ami                    = \"ami-0fleet\"\n\
        \  instance_type          = \"%s\"\n\
        \  subnet_id              = aws_subnet.%sg%d.id\n\
        \  vpc_security_group_ids = [aws_security_group.%sg%d.id]\n\
        \  region                 = \"us-east-1\"\n\
         }\n"
        p g p (g / 1024) (g / 4 mod 256) (g mod 4 * 64) p g p g p p g p g
        (8000 + (g mod 1000))
        p p g instances_per_group f.types.(k).(g) p g p g
    done;
    if pad_per_stack f > 0 then
      Printf.bprintf b
        "\n\
         resource \"aws_eip\" \"%spad\" {\n\
        \  count      = %d\n\
        \  region     = \"us-east-1\"\n\
        \  depends_on = [aws_vpc.%sfleet]\n\
         }\n"
        p (pad_per_stack f) p
  done;
  Buffer.contents b

(* Expected rows: address -> (resource type, instance_type if any). *)
let expected f =
  let t = Hashtbl.create (resources f) in
  let add addr rtype itype = Hashtbl.replace t addr (rtype, itype) in
  for k = 0 to f.stacks - 1 do
    let p = Printf.sprintf "f%d_" k in
    add (Printf.sprintf "aws_vpc.%sfleet" p) "aws_vpc" None;
    for g = 0 to groups_per_stack f - 1 do
      let n = Printf.sprintf "%sg%d" p g in
      add ("aws_subnet." ^ n) "aws_subnet" None;
      add ("aws_security_group." ^ n) "aws_security_group" None;
      add ("aws_lb_target_group." ^ n) "aws_lb_target_group" None;
      for i = 0 to instances_per_group - 1 do
        add
          (Printf.sprintf "aws_instance.%s[%d]" n i)
          "aws_instance"
          (Some f.types.(k).(g))
      done
    done;
    for i = 0 to pad_per_stack f - 1 do
      add (Printf.sprintf "aws_eip.%spad[%d]" p i) "aws_eip" None
    done
  done;
  t

(* --- reading a state file without the program's own parser ------- *)

type row = {
  addr : string;
  rtype : string;
  cloud_id : string;
  itype : string option;
  text : string;  (** the whole [instance "..." { ... }] block *)
}

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* The quoted string following [key] on [line], if [key] occurs. *)
let quoted_after line key =
  match find_sub line key 0 with
  | None -> None
  | Some i -> (
      let from = i + String.length key in
      match String.index_from_opt line from '"' with
      | None -> None
      | Some q ->
          let e = String.index_from line (q + 1) '"' in
          Some (String.sub line (q + 1) (e - q - 1)))

(* State files render one [instance "<addr>" { ... }] block per row,
   closed by a lone "}" line. *)
let rows_of_state text =
  let lines = String.split_on_char '\n' text in
  let rec scan acc cur = function
    | [] -> List.rev acc
    | line :: rest -> (
        match cur with
        | None -> (
            match quoted_after line "instance " with
            | Some addr when String.length line > 9 && String.sub line 0 9 = "instance " ->
                scan acc (Some (addr, [ line ])) rest
            | _ -> scan acc None rest)
        | Some (addr, ls) when line = "}" ->
            let block = List.rev (line :: ls) in
            let field key =
              List.find_map (fun l -> quoted_after l key) block
            in
            let row =
              {
                addr;
                rtype = Option.value ~default:"" (field "  type ");
                cloud_id = Option.value ~default:"" (field "  cloud_id ");
                itype = field "instance_type = ";
                text = String.concat "\n" block;
              }
            in
            scan (row :: acc) None rest
        | Some (addr, ls) -> scan acc (Some (addr, line :: ls)) rest)
  in
  scan [] None lines

(* Every row has exactly the expected address, type and instance type,
   and every expected address has a row. *)
let check_rows c ~what expected rows =
  let seen = Hashtbl.create (List.length rows) in
  let bad = ref 0 in
  List.iter
    (fun r ->
      Hashtbl.replace seen r.addr ();
      match Hashtbl.find_opt expected r.addr with
      | None -> incr bad
      | Some (rtype, itype) -> if rtype <> r.rtype || itype <> r.itype then incr bad)
    rows;
  Util.check c (!bad = 0) "%s: %d state rows differ from the reference" what !bad;
  Util.check c
    (Hashtbl.length seen = Hashtbl.length expected
    && List.length rows = Hashtbl.length expected)
    "%s: %d rows for %d expected resources" what (List.length rows)
    (Hashtbl.length expected)

(* A row with every cloud id replaced by the address owning it.  The
   cloud is rebuilt from the state file on every apply and hands out
   fresh ids, so ids are not stable across applies; owning addresses
   are. *)
let canonical owner r =
  let s = r.text in
  let b = Buffer.create (String.length s) in
  let is_tok ch =
    (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') || ch = '-' || ch = '_'
  in
  let n = String.length s in
  let rec go i =
    if i < n then
      if is_tok s.[i] then begin
        let j = ref i in
        while !j < n && is_tok s.[!j] do incr j done;
        let tok = String.sub s i (!j - i) in
        (match Hashtbl.find_opt owner tok with
        | Some addr -> Buffer.add_string b ("@" ^ addr)
        | None -> Buffer.add_string b tok);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let owners rows =
  let t = Hashtbl.create (List.length rows) in
  List.iter (fun r -> Hashtbl.replace t r.cloud_id r.addr) rows;
  t

(* After the edit, rows outside the edited groups equal their pre-edit
   rows byte for byte (ids mapped to addresses), and edited rows differ
   from their pre-edit rows in the instance type alone. *)
let check_edit c ~pre ~post ~edited_addrs =
  let pre_owner = owners pre and post_owner = owners post in
  let before = Hashtbl.create (List.length pre) in
  List.iter (fun r -> Hashtbl.replace before r.addr r) pre;
  let changed = ref 0 and bad = ref 0 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt before r.addr with
      | None -> incr bad
      | Some p ->
          let a = canonical pre_owner p and b = canonical post_owner r in
          if Hashtbl.mem edited_addrs r.addr then begin
            incr changed;
            let swap =
              match (p.itype, r.itype) with
              | Some o, Some n ->
                  let key = "instance_type = \"" ^ o ^ "\"" in
                  (match find_sub a key 0 with
                  | Some i ->
                      String.sub a 0 i ^ "instance_type = \"" ^ n ^ "\""
                      ^ String.sub a (i + String.length key)
                          (String.length a - i - String.length key)
                  | None -> a)
              | _ -> a
            in
            if swap <> b || p.itype = r.itype then incr bad
          end
          else if a <> b then incr bad)
    post;
  Util.check c (!bad = 0) "edit: %d rows changed outside the edit or wrongly" !bad;
  Util.check c
    (!changed = Hashtbl.length edited_addrs)
    "edit: %d edited rows found, %d expected" !changed
    (Hashtbl.length edited_addrs)
