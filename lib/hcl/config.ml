(** Structured view of a parsed configuration.

    Raises {!Config_error} when a well-formed HCL body is not a
    well-formed *configuration* (wrong label counts, unknown top-level
    block types, duplicate names, ...). *)

exception Config_error of string * Loc.span

let errf span fmt = Fmt.kstr (fun s -> raise (Config_error (s, span))) fmt

type variable = {
  vname : string;
  vtype : string option;  (** declared type, e.g. ["string"], ["list"] *)
  vdefault : Ast.expr option;
  vdescription : string option;
  vspan : Loc.span;
}

type lifecycle = {
  create_before_destroy : bool;
  prevent_destroy : bool;
  ignore_changes : string list;
}

let default_lifecycle =
  { create_before_destroy = false; prevent_destroy = false; ignore_changes = [] }

type resource = {
  rtype : string;
  rname : string;
  rbody : Ast.body;  (** body minus meta-arguments *)
  rcount : Ast.expr option;
  rfor_each : Ast.expr option;
  rprovider : string option;  (** explicit [provider =] override *)
  rdepends_on : (string * string) list;  (** (type, name) pairs *)
  rlifecycle : lifecycle;
  rspan : Loc.span;
}

type data_source = {
  dtype : string;
  dname : string;
  dbody : Ast.body;
  dspan : Loc.span;
}

type output = {
  oname : string;
  ovalue : Ast.expr;
  odescription : string option;
  ospan : Loc.span;
}

type module_call = {
  mname : string;
  msource : string;
  margs : (string * Ast.expr) list;  (** arguments minus meta-arguments *)
  mcount : Ast.expr option;
  mfor_each : Ast.expr option;
  mspan : Loc.span;
}

type provider_config = {
  pname : string;
  pbody : Ast.body;
  pspan : Loc.span;
}

type t = {
  file : string;
  variables : variable list;
  locals : (string * Ast.expr) list;
  resources : resource list;
  data_sources : data_source list;
  outputs : output list;
  modules : module_call list;
  providers : provider_config list;
}

let empty ~file =
  {
    file;
    variables = [];
    locals = [];
    resources = [];
    data_sources = [];
    outputs = [];
    modules = [];
    providers = [];
  }

(* ------------------------------------------------------------------ *)
(* Extraction helpers                                                  *)
(* ------------------------------------------------------------------ *)

let literal_string span e =
  match e.Ast.desc with
  | Ast.Template [ Ast.Lit s ] -> s
  | Ast.Template [] -> ""
  | _ -> errf span "expected a literal string"

let opt_literal_string body name =
  match Ast.attr body name with
  | None -> None
  | Some e ->
      let span = Option.value ~default:Loc.dummy (Ast.attr_span body name) in
      Some (literal_string span e)

let literal_bool span e =
  match e.Ast.desc with
  | Ast.Bool b -> b
  | _ -> errf span "expected a literal bool"

(* depends_on = [aws_vpc.main, module.net] : references given as bare
   traversals. *)
let parse_depends_on span e =
  let one (item : Ast.expr) =
    match Refs.of_expr item with
    | [ Refs.Tresource (t, n) ] -> (t, n)
    | [ Refs.Tdata (t, n) ] -> ("data." ^ t, n)
    | [ Refs.Tmodule (m, _) ] -> ("module", m)
    | _ -> errf span "depends_on entries must be resource references"
  in
  match e.Ast.desc with
  | Ast.ListLit items -> List.map one items
  | _ -> errf span "depends_on must be a list"

let parse_lifecycle (b : Ast.block) =
  let body = b.Ast.bbody in
  let get_bool name =
    match Ast.attr body name with
    | None -> false
    | Some e ->
        literal_bool (Option.value ~default:b.Ast.bspan (Ast.attr_span body name)) e
  in
  let ignore_changes =
    match Ast.attr body "ignore_changes" with
    | None -> []
    | Some { Ast.desc = Ast.ListLit items; _ } ->
        List.map
          (fun (item : Ast.expr) ->
            match item.Ast.desc with
            | Ast.Var name -> name
            | Ast.Template [ Ast.Lit s ] -> s
            | _ -> errf b.Ast.bspan "ignore_changes entries must be attribute names")
          items
    | Some _ -> errf b.Ast.bspan "ignore_changes must be a list"
  in
  {
    create_before_destroy = get_bool "create_before_destroy";
    prevent_destroy = get_bool "prevent_destroy";
    ignore_changes;
  }

(* Strip the meta-arguments out of a resource body, returning them
   separately. *)
let split_resource_body (b : Ast.block) =
  let body = b.Ast.bbody in
  let meta = [ "count"; "for_each"; "provider"; "depends_on" ] in
  let plain_attrs =
    List.filter (fun (a : Ast.attribute) -> not (List.mem a.Ast.aname meta)) body.attrs
  in
  let lifecycle_blocks, other_blocks =
    List.partition (fun (bl : Ast.block) -> bl.Ast.btype = "lifecycle") body.blocks
  in
  let rcount = Ast.attr body "count" in
  let rfor_each = Ast.attr body "for_each" in
  let rprovider =
    match Ast.attr body "provider" with
    | None -> None
    | Some e -> (
        match e.Ast.desc with
        | Ast.Var p -> Some p
        | Ast.GetAttr ({ Ast.desc = Ast.Var p; _ }, alias) -> Some (p ^ "." ^ alias)
        | Ast.Template [ Ast.Lit s ] -> Some s
        | _ -> errf b.Ast.bspan "provider must be a provider reference")
  in
  let rdepends_on =
    match Ast.attr body "depends_on" with
    | None -> []
    | Some e ->
        parse_depends_on
          (Option.value ~default:b.Ast.bspan (Ast.attr_span body "depends_on"))
          e
  in
  let rlifecycle =
    match lifecycle_blocks with
    | [] -> default_lifecycle
    | [ lb ] -> parse_lifecycle lb
    | _ -> errf b.Ast.bspan "multiple lifecycle blocks"
  in
  ( { Ast.attrs = plain_attrs; blocks = other_blocks },
    rcount,
    rfor_each,
    rprovider,
    rdepends_on,
    rlifecycle )

(* ------------------------------------------------------------------ *)
(* Top-level assembly                                                  *)
(* ------------------------------------------------------------------ *)

(* The name a declaration claims; two declarations of one kind may not
   claim the same name. *)
type name =
  | Variable of string
  | Local of string
  | Resource of string * string
  | Data of string * string
  | Output of string
  | Module of string

(* The names declared so far, hashed so that each duplicate check is
   O(1).  The set starts small and grows with the input: the control
   plane parses an 8-resource configuration per request. *)
let name_set () : (name, unit) Hashtbl.t = Hashtbl.create 16

(* Record [name]; [false] if it was already declared. *)
let fresh set name =
  (not (Hashtbl.mem set name)) && (Hashtbl.replace set name (); true)

(* Raise [dup] for the first of [items] whose name is already in [set],
   then record all their names.  Names repeated within [items] are not
   checked against each other. *)
let declare set name dup items =
  List.iter (fun x -> if Hashtbl.mem set (name x) then dup x) items;
  List.iter (fun x -> Hashtbl.replace set (name x) ()) items

let of_body ~file (body : Ast.body) : t =
  if body.Ast.attrs <> [] then begin
    let a = List.hd body.Ast.attrs in
    errf a.Ast.aspan "attribute %S not allowed at top level" a.Ast.aname
  end;
  (* each kind is collected in reverse and reversed once at the end *)
  let variables = ref [] and locals = ref [] and resources = ref [] in
  let data_sources = ref [] and outputs = ref [] and modules = ref [] in
  let providers = ref [] in
  let names = name_set () in
  let add_variable (b : Ast.block) name =
    let vb = b.Ast.bbody in
    let vtype =
      match Ast.attr vb "type" with
      | None -> None
      | Some e -> (
          match e.Ast.desc with
          | Ast.Var ty -> Some ty
          | Ast.Template [ Ast.Lit ty ] -> Some ty
          | Ast.Call (ctor, _, _) -> Some ctor
          | _ -> errf b.Ast.bspan "variable type must be a type name")
    in
    let v =
      {
        vname = name;
        vtype;
        vdefault = Ast.attr vb "default";
        vdescription = opt_literal_string vb "description";
        vspan = b.Ast.bspan;
      }
    in
    if not (fresh names (Variable name)) then
      errf b.Ast.bspan "duplicate variable %S" name;
    variables := v :: !variables
  in
  let add_resource (b : Ast.block) rtype rname =
    if not (fresh names (Resource (rtype, rname))) then
      errf b.Ast.bspan "duplicate resource %s.%s" rtype rname;
    let rbody, rcount, rfor_each, rprovider, rdepends_on, rlifecycle =
      split_resource_body b
    in
    let r =
      {
        rtype;
        rname;
        rbody;
        rcount;
        rfor_each;
        rprovider;
        rdepends_on;
        rlifecycle;
        rspan = b.Ast.bspan;
      }
    in
    resources := r :: !resources
  in
  let add_data (b : Ast.block) dtype dname =
    if not (fresh names (Data (dtype, dname))) then
      errf b.Ast.bspan "duplicate data source data.%s.%s" dtype dname;
    let d = { dtype; dname; dbody = b.Ast.bbody; dspan = b.Ast.bspan } in
    data_sources := d :: !data_sources
  in
  let add_output (b : Ast.block) name =
    let ob = b.Ast.bbody in
    let ovalue =
      match Ast.attr ob "value" with
      | Some e -> e
      | None -> errf b.Ast.bspan "output %S has no value" name
    in
    let o =
      {
        oname = name;
        ovalue;
        odescription = opt_literal_string ob "description";
        ospan = b.Ast.bspan;
      }
    in
    if not (fresh names (Output name)) then
      errf b.Ast.bspan "duplicate output %S" name;
    outputs := o :: !outputs
  in
  let add_module (b : Ast.block) name =
    let mb = b.Ast.bbody in
    let msource =
      match Ast.attr mb "source" with
      | Some e ->
          literal_string
            (Option.value ~default:b.Ast.bspan (Ast.attr_span mb "source"))
            e
      | None -> errf b.Ast.bspan "module %S has no source" name
    in
    let meta = [ "source"; "count"; "for_each"; "providers"; "depends_on" ] in
    let margs =
      List.filter_map
        (fun (a : Ast.attribute) ->
          if List.mem a.Ast.aname meta then None
          else Some (a.Ast.aname, a.Ast.avalue))
        mb.Ast.attrs
    in
    let m =
      {
        mname = name;
        msource;
        margs;
        mcount = Ast.attr mb "count";
        mfor_each = Ast.attr mb "for_each";
        mspan = b.Ast.bspan;
      }
    in
    if not (fresh names (Module name)) then
      errf b.Ast.bspan "duplicate module %S" name;
    modules := m :: !modules
  in
  let add_locals (b : Ast.block) =
    let entries =
      List.map (fun (a : Ast.attribute) -> (a.Ast.aname, a.Ast.avalue)) b.Ast.bbody.attrs
    in
    declare names
      (fun (name, _) -> Local name)
      (fun (name, _) -> errf b.Ast.bspan "duplicate local %S" name)
      entries;
    locals := List.rev_append entries !locals
  in
  let add_provider (b : Ast.block) name =
    let p = { pname = name; pbody = b.Ast.bbody; pspan = b.Ast.bspan } in
    providers := p :: !providers
  in
  List.iter
    (fun (b : Ast.block) ->
      match (b.Ast.btype, b.Ast.labels) with
      | "variable", [ name ] -> add_variable b name
      | "variable", _ -> errf b.Ast.bspan "variable block takes exactly one label"
      | "resource", [ rtype; rname ] -> add_resource b rtype rname
      | "resource", _ -> errf b.Ast.bspan "resource block takes two labels"
      | "data", [ dtype; dname ] -> add_data b dtype dname
      | "data", _ -> errf b.Ast.bspan "data block takes two labels"
      | "output", [ name ] -> add_output b name
      | "output", _ -> errf b.Ast.bspan "output block takes exactly one label"
      | "module", [ name ] -> add_module b name
      | "module", _ -> errf b.Ast.bspan "module block takes exactly one label"
      | "locals", [] -> add_locals b
      | "locals", _ -> errf b.Ast.bspan "locals block takes no labels"
      | "provider", [ name ] -> add_provider b name
      | "provider", _ -> errf b.Ast.bspan "provider block takes exactly one label"
      | "terraform", _ -> ()  (* settings block: accepted and ignored *)
      | ty, _ -> errf b.Ast.bspan "unknown top-level block type %S" ty)
    body.Ast.blocks;
  {
    file;
    variables = List.rev !variables;
    locals = List.rev !locals;
    resources = List.rev !resources;
    data_sources = List.rev !data_sources;
    outputs = List.rev !outputs;
    modules = List.rev !modules;
    providers = List.rev !providers;
  }

(** Parse source text into a structured configuration. *)
let parse ~file src = of_body ~file (Parser.parse ~file src)

let find_resource t rtype rname =
  List.find_opt (fun r -> r.rtype = rtype && r.rname = rname) t.resources

let find_variable t name = List.find_opt (fun v -> v.vname = name) t.variables

let find_module t name = List.find_opt (fun m -> m.mname = name) t.modules

(** Reconstruct a printable AST body from a structured config.  Blocks
    appear in a conventional order: variables, locals, data, resources,
    modules, outputs. *)
let to_body (t : t) : Ast.body =
  let variable_block v =
    let attrs =
      (match v.vtype with
      | Some ty ->
          [ { Ast.aname = "type"; avalue = Ast.mk (Ast.Var ty); aspan = Loc.dummy } ]
      | None -> [])
      @ (match v.vdefault with
        | Some d -> [ { Ast.aname = "default"; avalue = d; aspan = Loc.dummy } ]
        | None -> [])
      @
      match v.vdescription with
      | Some d ->
          [
            {
              Ast.aname = "description";
              avalue = Ast.string_lit d;
              aspan = Loc.dummy;
            };
          ]
      | None -> []
    in
    {
      Ast.btype = "variable";
      labels = [ v.vname ];
      bbody = { Ast.attrs; blocks = [] };
      bspan = v.vspan;
    }
  in
  let locals_block =
    if t.locals = [] then []
    else
      [
        {
          Ast.btype = "locals";
          labels = [];
          bbody =
            {
              Ast.attrs =
                List.map
                  (fun (name, e) ->
                    { Ast.aname = name; avalue = e; aspan = Loc.dummy })
                  t.locals;
              blocks = [];
            };
          bspan = Loc.dummy;
        };
      ]
  in
  let data_block d =
    { Ast.btype = "data"; labels = [ d.dtype; d.dname ]; bbody = d.dbody; bspan = d.dspan }
  in
  let resource_block r =
    let meta_attrs =
      (match r.rcount with
      | Some c -> [ { Ast.aname = "count"; avalue = c; aspan = Loc.dummy } ]
      | None -> [])
      @
      match r.rfor_each with
      | Some fe -> [ { Ast.aname = "for_each"; avalue = fe; aspan = Loc.dummy } ]
      | None -> []
    in
    let depends_attr =
      if r.rdepends_on = [] then []
      else
        [
          {
            Ast.aname = "depends_on";
            avalue =
              Ast.mk
                (Ast.ListLit
                   (List.map
                      (fun (ty, n) ->
                        Ast.mk (Ast.GetAttr (Ast.mk (Ast.Var ty), n)))
                      r.rdepends_on));
            aspan = Loc.dummy;
          };
        ]
    in
    {
      Ast.btype = "resource";
      labels = [ r.rtype; r.rname ];
      bbody =
        {
          Ast.attrs = meta_attrs @ r.rbody.Ast.attrs @ depends_attr;
          blocks = r.rbody.Ast.blocks;
        };
      bspan = r.rspan;
    }
  in
  let module_block m =
    let attrs =
      { Ast.aname = "source"; avalue = Ast.string_lit m.msource; aspan = Loc.dummy }
      :: List.map
           (fun (name, e) -> { Ast.aname = name; avalue = e; aspan = Loc.dummy })
           m.margs
    in
    {
      Ast.btype = "module";
      labels = [ m.mname ];
      bbody = { Ast.attrs; blocks = [] };
      bspan = m.mspan;
    }
  in
  let output_block o =
    {
      Ast.btype = "output";
      labels = [ o.oname ];
      bbody =
        {
          Ast.attrs =
            [ { Ast.aname = "value"; avalue = o.ovalue; aspan = Loc.dummy } ];
          blocks = [];
        };
      bspan = o.ospan;
    }
  in
  let provider_block p =
    { Ast.btype = "provider"; labels = [ p.pname ]; bbody = p.pbody; bspan = p.pspan }
  in
  {
    Ast.attrs = [];
    blocks =
      List.map provider_block t.providers
      @ List.map variable_block t.variables
      @ locals_block
      @ List.map data_block t.data_sources
      @ List.map resource_block t.resources
      @ List.map module_block t.modules
      @ List.map output_block t.outputs;
  }

(** Render a structured configuration back to HCL text. *)
let to_string t = Printer.config_to_string (to_body t)

(** Merge several parsed files into one configuration (Terraform's
    directory model: all [*.tf] files in a directory form one module).
    Duplicate declarations across files are errors, like within one
    file; each file's names are checked against the files before it. *)
let merge (configs : t list) : t =
  match configs with
  | [] -> empty ~file:"<empty>"
  | first :: _ ->
      let names = name_set () in
      List.iter
        (fun c ->
          declare names
            (fun v -> Variable v.vname)
            (fun v -> errf v.vspan "duplicate variable %S across files" v.vname)
            c.variables;
          declare names
            (fun r -> Resource (r.rtype, r.rname))
            (fun r ->
              errf r.rspan "duplicate resource %s.%s across files" r.rtype
                r.rname)
            c.resources;
          declare names
            (fun d -> Data (d.dtype, d.dname))
            (fun d ->
              errf d.dspan "duplicate data source data.%s.%s across files"
                d.dtype d.dname)
            c.data_sources;
          declare names
            (fun o -> Output o.oname)
            (fun o -> errf o.ospan "duplicate output %S across files" o.oname)
            c.outputs;
          declare names
            (fun m -> Module m.mname)
            (fun m -> errf m.mspan "duplicate module %S across files" m.mname)
            c.modules;
          declare names
            (fun (name, _) -> Local name)
            (fun (name, _) ->
              errf Loc.dummy "duplicate local %S across files" name)
            c.locals)
        configs;
      let all field = List.concat_map field configs in
      {
        first with
        variables = all (fun c -> c.variables);
        locals = all (fun c -> c.locals);
        resources = all (fun c -> c.resources);
        data_sources = all (fun c -> c.data_sources);
        outputs = all (fun c -> c.outputs);
        modules = all (fun c -> c.modules);
        providers = all (fun c -> c.providers);
      }
