(** Deployment state: the IaC framework's record of what it believes
    exists in the cloud.

    Equivalent to Terraform's state file.  Maps resource addresses to
    their cloud identity and last-known attributes, and records the
    dependency edges observed at apply time (needed to destroy in the
    right order even after the configuration changed).

    Serialized as HCL itself — one [instance] block per resource — so
    the whole toolchain shares a single syntax. *)

module Addr = Cloudless_hcl.Addr
module Value = Cloudless_hcl.Value
module Smap = Value.Smap

type resource_state = {
  addr : Addr.t;
  cloud_id : string;
  rtype : string;
  region : string;
  attrs : Value.t Smap.t;  (** last attributes observed from the cloud *)
  deps : Addr.t list;  (** dependencies at the time of creation *)
}

type t = {
  serial : int;  (** bumped on every mutation; optimistic concurrency *)
  resources : resource_state Amap.t;
  mutable cloud_index : Addr.t Smap.t option;
      (** lazily-built reverse index (cloud id -> address), rebuilt on
          first {!find_by_cloud_id} after a topology change — keeping
          it incrementally would double the spine rebuilds on the
          apply hot path.  Cloud ids are unique per deployment; were a
          state ever to hold duplicates (e.g. a merge of independently
          numbered shards), the highest address wins — previously it
          was the latest add, equally arbitrary.  Updates that keep
          [resources] unchanged (or change only attributes) share the
          memo. *)
  outputs : (string * Value.t) list;
}

let empty =
  {
    serial = 0;
    resources = Amap.empty;
    cloud_index = None;
    outputs = [];
  }

let serial t = t.serial
let resources t = List.map snd (Amap.bindings t.resources)
let size t = Amap.cardinal t.resources
let find_opt t addr = Amap.find_opt addr t.resources
let mem t addr = Amap.mem addr t.resources
let outputs t = t.outputs

let add t (r : resource_state) =
  {
    t with
    serial = t.serial + 1;
    resources = Amap.add r.addr r t.resources;
    cloud_index = None;
  }

let remove t addr =
  {
    t with
    serial = t.serial + 1;
    resources = Amap.remove addr t.resources;
    cloud_index = None;
  }

let set_outputs t outputs = { t with serial = t.serial + 1; outputs }

(** Override the serial — for callers that batch mutations (the
    executor's apply overlay) and must account for every individual
    write the batch replaced, matching what a per-write [add]/[remove]
    sequence would have produced. *)
let with_serial t serial = { t with serial }

(** Build a state from rows sorted strictly ascending by address in
    O(n) — the bulk counterpart of folding {!add}, which pays a path
    copy per row.  The caller supplies the serial (see
    {!with_serial}); [outputs] defaults to none. *)
let of_sorted_rows ?(outputs = []) ~serial
    (rows : (Addr.t * resource_state) array) =
  { serial; resources = Amap.of_sorted_array rows; cloud_index = None; outputs }

(** Update just the attributes of a tracked resource. *)
let update_attrs t addr attrs =
  match Amap.find_opt addr t.resources with
  | None -> t
  | Some r ->
      {
        t with
        serial = t.serial + 1;
        resources = Amap.add addr { r with attrs } t.resources;
      }

(** The lookup function expansion needs (see
    {!Cloudless_hcl.Eval.env.state_lookup}). *)
let lookup t addr =
  Option.map (fun r -> r.attrs) (Amap.find_opt addr t.resources)

(* Force (and memoize) the reverse index. *)
let cloud_index t =
  match t.cloud_index with
  | Some ix -> ix
  | None ->
      let ix =
        Amap.fold
          (fun addr r acc -> Smap.add r.cloud_id addr acc)
          t.resources Smap.empty
      in
      t.cloud_index <- Some ix;
      ix

(** Find the state entry for a cloud id via the (lazily-built) reverse
    index: O(log n) per lookup instead of a fold over every tracked
    resource. *)
let find_by_cloud_id t cloud_id =
  match Smap.find_opt cloud_id (cloud_index t) with
  | Some addr -> Amap.find_opt addr t.resources
  | None -> None

(** Addresses tracked in state but not in [addrs] — candidates for
    deletion in a plan. *)
let orphans t addrs =
  (* hashed membership, not [Addr.Set.of_list]: [addrs] is every
     desired address (possibly millions) while the recorded resources
     may be few — don't pay a balanced-tree build on the big side *)
  if Amap.is_empty t.resources then []
  else begin
  let keep = Hashtbl.create (2 * Amap.cardinal t.resources) in
  List.iter (fun a -> Hashtbl.replace keep a ()) addrs;
  Amap.fold
    (fun addr _ acc -> if Hashtbl.mem keep addr then acc else addr :: acc)
    t.resources []
  |> List.rev
  end

(* ------------------------------------------------------------------ *)
(* Serialization (HCL blocks)                                          *)
(* ------------------------------------------------------------------ *)

module Ast = Cloudless_hcl.Ast
module Codec = Cloudless_hcl.Codec
module Printer = Cloudless_hcl.Printer
module Parser = Cloudless_hcl.Parser
module Loc = Cloudless_hcl.Loc

(* Corrupt state files surface through the typed error channel with a
   span pointing into the state file itself. *)
let corrupt ?(span = Loc.dummy) fmt =
  Cloudless_error.fail ~stage:Cloudless_error.Diagnostic.State_io
    ~code:"corrupt-state" ~span fmt

(* Unknowns must never reach the state file: the writer prints them as
   [null], the value this substitutes. *)
let rec sanitize (v : Value.t) : Value.t =
  match v with
  | Value.Vunknown _ -> Value.Vnull
  | Value.Vlist vs -> Value.Vlist (List.map sanitize vs)
  | Value.Vmap m -> Value.Vmap (Smap.map sanitize m)
  | v -> v

let add_addr_lit buf a =
  if Addr.is_plain a then begin
    Buffer.add_char buf '"';
    Addr.add_plain buf a;
    Buffer.add_char buf '"'
  end
  else Printer.add_string_lit buf (Addr.to_string a)

let add_row buf (r : resource_state) =
  Buffer.add_string buf "\ninstance ";
  add_addr_lit buf r.addr;
  Buffer.add_string buf " {\n  cloud_id   = ";
  Printer.add_string_lit buf r.cloud_id;
  Buffer.add_string buf "\n  type       = ";
  Printer.add_string_lit buf r.rtype;
  Buffer.add_string buf "\n  region     = ";
  Printer.add_string_lit buf r.region;
  Buffer.add_string buf "\n  attributes = ";
  Printer.value_to_buf buf (Value.Vmap r.attrs);
  Buffer.add_string buf "\n  depends    = [";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ", ";
      add_addr_lit buf d)
    r.deps;
  Buffer.add_string buf "]\n}\n"

(** The state as HCL: a [state] block, one [instance] block per
    resource in address order, then one [output] block per output,
    written straight into one buffer.  Unknowns are written as
    [null]. *)
let to_string t =
  (* a typical row is about 400 bytes: one buffer, rarely regrown *)
  let buf = Buffer.create (4096 + (512 * Amap.cardinal t.resources)) in
  Buffer.add_string buf "state {\n  serial = ";
  Buffer.add_string buf (string_of_int t.serial);
  Buffer.add_string buf "\n}\n";
  Amap.fold (fun _ r () -> add_row buf r) t.resources ();
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf "\noutput ";
      Printer.add_string_lit buf name;
      Buffer.add_string buf " {\n  value = ";
      Printer.value_to_buf buf v;
      Buffer.add_string buf "\n}\n")
    t.outputs;
  Buffer.contents buf

let literal ?(span = Loc.dummy) body name =
  match Ast.attr body name with
  | None -> corrupt ~span "state: missing %S" name
  | Some e -> (
      match Codec.expr_to_value e with
      | Some v -> v
      | None ->
          corrupt
            ?span:(Some (Option.value ~default:span (Ast.attr_span body name)))
            "state: %S is not literal" name)

(* A literal field converted by [conv]; a value of the wrong type is
   corrupt, reported at the attribute like a non-literal one. *)
let typed ~span conv body name =
  try conv (literal ~span body name)
  with Value.Type_error msg ->
    corrupt
      ?span:(Some (Option.value ~default:span (Ast.attr_span body name)))
      "state: %S: %s" name msg

let decode_row span (body : Ast.body) addr_str =
  let addr =
    match Addr.of_string addr_str with
    | Some a -> a
    | None -> corrupt ~span "state: bad address %s" addr_str
  in
  let attrs =
    match literal ~span body "attributes" with
    | Value.Vmap m -> m
    | _ -> corrupt ~span "state: attributes must be an object"
  in
  let deps =
    typed ~span
      (function
        | Value.Vlist vs ->
            List.map
              (fun v ->
                match Addr.of_string (Value.to_string v) with
                | Some a -> a
                | None -> corrupt ~span "state: bad dep address")
              vs
        | _ -> corrupt ~span "state: depends must be a list")
      body "depends"
  in
  {
    addr;
    cloud_id = typed ~span Value.to_string body "cloud_id";
    rtype = typed ~span Value.to_string body "type";
    region = typed ~span Value.to_string body "region";
    attrs;
    deps;
  }

(** Read a state file.  Top-level blocks are parsed and decoded one at
    a time, so the first error in the source is the one raised and the
    file's AST never exists whole.  Rows written by {!to_string} come
    in address order and build the map in O(n); a hand-edited file out
    of order is sorted once.  A repeated address is corrupt, reported
    at its second block. *)
let of_string ?(file = "<state>") src =
  let items = Parser.items ~file src in
  let serial = ref 0 and outputs = ref [] in
  let rows = ref [||] and n = ref 0 in
  (* addresses seen so far, kept only once the rows fall out of order *)
  let seen = ref None in
  let push span r =
    let duplicate () =
      corrupt ~span "state: duplicate instance %s" (Addr.to_string r.addr)
    in
    (match !seen with
    | None when !n > 0 ->
        let c = Addr.compare (fst !rows.(!n - 1)) r.addr in
        if c = 0 then duplicate ();
        if c > 0 then begin
          let tbl = Hashtbl.create (2 * !n) in
          for i = 0 to !n - 1 do
            Hashtbl.replace tbl (fst !rows.(i)) ()
          done;
          seen := Some tbl
        end
    | _ -> ());
    (match !seen with
    | Some tbl ->
        if Hashtbl.mem tbl r.addr then duplicate ();
        Hashtbl.replace tbl r.addr ()
    | None -> ());
    if !n = Array.length !rows then begin
      let grown = Array.make (max 64 (2 * !n)) (r.addr, r) in
      Array.blit !rows 0 grown 0 !n;
      rows := grown
    end;
    !rows.(!n) <- (r.addr, r);
    incr n
  in
  let rec loop () =
    match Parser.next items with
    | Parser.End -> ()
    | Parser.Attribute _ -> loop ()
    | Parser.Block b ->
        let span = b.Ast.bspan in
        (match (b.Ast.btype, b.Ast.labels) with
        | "state", _ ->
            serial := typed ~span Value.to_int b.Ast.bbody "serial"
        | "instance", [ addr_str ] ->
            push span (decode_row span b.Ast.bbody addr_str)
        | "output", [ name ] ->
            outputs := (name, literal ~span b.Ast.bbody "value") :: !outputs
        | ty, _ -> corrupt ~span "state: unexpected block %s" ty);
        loop ()
  in
  loop ();
  let rows = Array.sub !rows 0 !n in
  if Option.is_some !seen then
    Array.sort (fun (a, _) (b, _) -> Addr.compare a b) rows;
  of_sorted_rows ~outputs:(List.rev !outputs) ~serial:!serial rows

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

(** Attribute-level difference between two states for the same address
    set; used by drift reporting and the time machine. *)
type entry_diff = {
  diff_addr : Addr.t;
  changed : (string * Value.t option * Value.t option) list;
      (** (attr, old value, new value) *)
}

let diff_entry (a : resource_state) (b : resource_state) : entry_diff option =
  let keys =
    List.sort_uniq String.compare
      (List.map fst (Smap.bindings a.attrs) @ List.map fst (Smap.bindings b.attrs))
  in
  let changed =
    List.filter_map
      (fun k ->
        let va = Smap.find_opt k a.attrs and vb = Smap.find_opt k b.attrs in
        match (va, vb) with
        | Some x, Some y when Value.equal x y -> None
        | None, None -> None
        | _ -> Some (k, va, vb))
      keys
  in
  if changed = [] then None else Some { diff_addr = a.addr; changed }

type state_diff = {
  added : Addr.t list;  (** in [b] but not [a] *)
  removed : Addr.t list;  (** in [a] but not [b] *)
  modified : entry_diff list;
}

let diff a b =
  let added =
    Amap.fold
      (fun addr _ acc -> if Amap.mem addr a.resources then acc else addr :: acc)
      b.resources []
    |> List.rev
  in
  let removed =
    Amap.fold
      (fun addr _ acc -> if Amap.mem addr b.resources then acc else addr :: acc)
      a.resources []
    |> List.rev
  in
  let modified =
    Amap.fold
      (fun addr ra acc ->
        match Amap.find_opt addr b.resources with
        | None -> acc
        | Some rb -> (
            match diff_entry ra rb with None -> acc | Some d -> d :: acc))
      a.resources []
    |> List.rev
  in
  { added; removed; modified }

let diff_is_empty d = d.added = [] && d.removed = [] && d.modified = []
