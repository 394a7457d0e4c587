(** Conversion between runtime values and literal expressions.

    Lets higher layers serialize fully-known values (deployment state,
    imported cloud attributes) as HCL source and read them back with
    the ordinary parser — one syntax everywhere. *)

exception Not_literal of string

(** [value_to_expr v] builds a literal expression rendering [v].
    Unknown values cannot be serialized and raise {!Not_literal}. *)
let rec value_to_expr (v : Value.t) : Ast.expr =
  match v with
  | Value.Vnull -> Ast.mk Ast.Null
  | Value.Vbool b -> Ast.mk (Ast.Bool b)
  | Value.Vint n -> Ast.mk (Ast.Int n)
  | Value.Vfloat f -> Ast.mk (Ast.Float f)
  | Value.Vstring s -> Ast.string_lit s
  | Value.Vlist vs -> Ast.mk (Ast.ListLit (List.map value_to_expr vs))
  | Value.Vmap m ->
      Ast.mk
        (Ast.ObjectLit
           (List.map
              (fun (k, v) -> (Ast.Kident k, value_to_expr v))
              (Value.Smap.bindings m)))
  | Value.Vunknown p -> raise (Not_literal ("unknown value: " ^ p))

(* The literal forms {!value_to_expr} produces (and a state file
   holds), read without an evaluation scope.  Anything else raises
   [Exit]. *)
let rec direct_value (e : Ast.expr) : Value.t =
  match e.Ast.desc with
  | Ast.Null -> Value.Vnull
  | Ast.Bool b -> Value.Vbool b
  | Ast.Int n -> Value.Vint n
  | Ast.Float f -> Value.Vfloat f
  | Ast.Template [] -> Value.Vstring ""
  | Ast.Template [ Ast.Lit s ] -> Value.Vstring s
  | Ast.ListLit es -> Value.Vlist (List.map direct_value es)
  | Ast.ObjectLit kvs ->
      Value.Vmap
        (List.fold_left
           (fun acc (k, v) ->
             match k with
             | Ast.Kident s -> Value.Smap.add s (direct_value v) acc
             | Ast.Kexpr _ -> raise Exit)
           Value.Smap.empty kvs)
  | _ -> raise Exit

(** [expr_to_value e] evaluates a *literal* expression to its value.
    Returns [None] when the expression contains references or calls.
    The common literal forms are read directly; the rest (operators,
    interpolations, computed keys) go through {!Eval}. *)
let expr_to_value (e : Ast.expr) : Value.t option =
  match direct_value e with
  | v -> Some v
  | exception Exit -> (
      if not (Ast.is_literal e) then None
      else
        match Eval.eval_expr e with
        | v -> Some v
        | exception _ -> None)
