(** Recursive-descent parser for the HCL subset.

    Grammar summary (after the lexer):

    {v
    config    ::= (NEWLINE | block)* EOF
    block     ::= IDENT (IDENT | STRING)* '{' body '}'
    body      ::= (NEWLINE | attribute | block)*
    attribute ::= IDENT '=' expr NEWLINE
    expr      ::= ternary
    ternary   ::= or ('?' expr ':' expr)?
    or        ::= and ('||' and)*
    and       ::= equality ('&&' equality)*
    equality  ::= compare (('=='|'!=') compare)*
    compare   ::= additive (('<'|'>'|'<='|'>=') additive)*
    additive  ::= multiplicative (('+'|'-') multiplicative)*
    mult      ::= unary (('*'|'/'|'%') unary)*
    unary     ::= ('-'|'!') unary | postfix
    postfix   ::= primary ('.' IDENT | '[' expr ']' | '[' '*' ']' '.' IDENT)*
    primary   ::= literal | ident | call | '(' expr ')' | list | object | for
    v} *)

exception Error of string * Loc.span

(* One token of lookahead over a token source: the lexer for a file or
   an expression, or the collected tokens of a [${...}] interpolation. *)
type state = {
  pull : unit -> Token.spanned;
  mutable cur : Token.spanned;
  mutable last : Loc.span;
}

let of_pull pull = { pull; cur = pull (); last = Loc.dummy }

let of_lexer lx = of_pull (fun () -> Lexer.next lx)

(* Interpolation token lists end in EOF, which then repeats like the
   lexer's. *)
let of_tokens toks =
  let rest = ref toks in
  of_pull (fun () ->
      match !rest with
      | [ t ] -> t
      | t :: tl ->
          rest := tl;
          t
      | [] -> { Token.tok = Token.EOF; span = Loc.dummy })

let peek st = st.cur.Token.tok
let peek_span st = st.cur.Token.span

let advance st =
  st.last <- st.cur.Token.span;
  st.cur <- st.pull ()

let error st msg = raise (Error (msg, peek_span st))

let expect st tok =
  if peek st = tok then advance st
  else
    error st
      (Printf.sprintf "expected %s but found %s" (Token.describe tok)
         (Token.describe (peek st)))

let skip_newlines st =
  while peek st = Token.NEWLINE do
    advance st
  done

(* Newlines are insignificant inside (), [] and {object} contexts; the
   expression parser calls this between sub-terms where HCL allows a
   line break. *)
let skip_newlines_in_expr = skip_newlines

let rec parse_expr st : Ast.expr = parse_ternary st

and parse_ternary st =
  let c = parse_or st in
  if peek st = Token.QUESTION then begin
    advance st;
    skip_newlines_in_expr st;
    let a = parse_expr st in
    skip_newlines_in_expr st;
    expect st Token.COLON;
    skip_newlines_in_expr st;
    let b = parse_expr st in
    { Ast.desc = Ast.Cond (c, a, b); espan = Loc.merge c.espan b.espan }
  end
  else c

(* One left-associative level of binary operators; [ops] maps its
   tokens to operators.  Every expression passes through all six
   levels, so a level that finds no operator allocates nothing. *)
and parse_binop_level st ops next = binop_loop st ops next (next st)

and binop_loop st ops next left =
  match List.assoc_opt (peek st) ops with
  | Some op ->
      advance st;
      skip_newlines_in_expr st;
      let right = next st in
      binop_loop st ops next
        {
          Ast.desc = Ast.Binop (op, left, right);
          espan = Loc.merge left.Ast.espan right.Ast.espan;
        }
  | None -> left

and parse_or st = parse_binop_level st [ (Token.OR, Ast.Or) ] parse_and
and parse_and st = parse_binop_level st [ (Token.AND, Ast.And) ] parse_eq

and parse_eq st =
  parse_binop_level st
    [ (Token.EQ, Ast.Eq); (Token.NEQ, Ast.Neq) ]
    parse_compare

and parse_compare st =
  parse_binop_level st
    [ (Token.LT, Ast.Lt); (Token.GT, Ast.Gt); (Token.LE, Ast.Le); (Token.GE, Ast.Ge) ]
    parse_add

and parse_add st =
  parse_binop_level st [ (Token.PLUS, Ast.Add); (Token.MINUS, Ast.Sub) ] parse_mul

and parse_mul st =
  parse_binop_level st
    [ (Token.STAR, Ast.Mul); (Token.SLASH, Ast.Div); (Token.PERCENT, Ast.Mod) ]
    parse_unary

and parse_unary st =
  let span = peek_span st in
  match peek st with
  | Token.MINUS ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unop (Ast.Neg, e); espan = Loc.merge span e.espan }
  | Token.NOT ->
      advance st;
      let e = parse_unary st in
      { Ast.desc = Ast.Unop (Ast.Not, e); espan = Loc.merge span e.espan }
  | _ -> parse_postfix st

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec loop () =
    match peek st with
    | Token.DOT ->
        advance st;
        (match peek st with
        | Token.IDENT name ->
            advance st;
            e :=
              {
                Ast.desc = Ast.GetAttr (!e, name);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ()
        | Token.INT n ->
            (* list element access written with dot syntax, e.g. a.0 *)
            advance st;
            let idx = { Ast.desc = Ast.Int n; espan = st.last } in
            e :=
              {
                Ast.desc = Ast.Index (!e, idx);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ()
        | Token.STAR ->
            advance st;
            expect st Token.DOT;
            (match peek st with
            | Token.IDENT name ->
                advance st;
                e :=
                  {
                    Ast.desc = Ast.Splat (!e, name);
                    espan = Loc.merge !e.Ast.espan st.last;
                  };
                loop ()
            | _ -> error st "expected attribute name after '.*.'")
        | _ -> error st "expected attribute name after '.'")
    | Token.LBRACKET -> (
        advance st;
        skip_newlines_in_expr st;
        match peek st with
        | Token.STAR ->
            advance st;
            expect st Token.RBRACKET;
            expect st Token.DOT;
            (match peek st with
            | Token.IDENT name ->
                advance st;
                e :=
                  {
                    Ast.desc = Ast.Splat (!e, name);
                    espan = Loc.merge !e.Ast.espan st.last;
                  };
                loop ()
            | _ -> error st "expected attribute name after '[*].'")
        | _ ->
            let idx = parse_expr st in
            skip_newlines_in_expr st;
            expect st Token.RBRACKET;
            e :=
              {
                Ast.desc = Ast.Index (!e, idx);
                espan = Loc.merge !e.Ast.espan st.last;
              };
            loop ())
    | _ -> ()
  in
  loop ();
  !e

and parse_primary st =
  let span = peek_span st in
  match peek st with
  | Token.INT n ->
      advance st;
      { Ast.desc = Ast.Int n; espan = span }
  | Token.FLOAT f ->
      advance st;
      { Ast.desc = Ast.Float f; espan = span }
  | Token.QUOTED parts | Token.HEREDOC parts ->
      (* parse the interpolations before lexing past the string, so an
         error inside one is reported before any error after it *)
      let parts = parse_parts ~span parts in
      advance st;
      { Ast.desc = Ast.Template parts; espan = span }
  | Token.IDENT "true" ->
      advance st;
      { Ast.desc = Ast.Bool true; espan = span }
  | Token.IDENT "false" ->
      advance st;
      { Ast.desc = Ast.Bool false; espan = span }
  | Token.IDENT "null" ->
      advance st;
      { Ast.desc = Ast.Null; espan = span }
  | Token.IDENT name ->
      advance st;
      if peek st = Token.LPAREN then begin
        advance st;
        skip_newlines_in_expr st;
        let args = ref [] in
        let expand = ref false in
        (if peek st <> Token.RPAREN then
           let rec args_loop () =
             let a = parse_expr st in
             args := a :: !args;
             skip_newlines_in_expr st;
             match peek st with
             | Token.COMMA ->
                 advance st;
                 skip_newlines_in_expr st;
                 if peek st <> Token.RPAREN then args_loop ()
             | Token.ELLIPSIS ->
                 advance st;
                 expand := true;
                 skip_newlines_in_expr st
             | _ -> ()
           in
           args_loop ());
        expect st Token.RPAREN;
        {
          Ast.desc = Ast.Call (name, List.rev !args, !expand);
          espan = Loc.merge span st.last;
        }
      end
      else { Ast.desc = Ast.Var name; espan = span }
  | Token.LPAREN ->
      advance st;
      skip_newlines_in_expr st;
      let e = parse_expr st in
      skip_newlines_in_expr st;
      expect st Token.RPAREN;
      { Ast.desc = Ast.Paren e; espan = Loc.merge span st.last }
  | Token.LBRACKET -> parse_list_or_for st span
  | Token.LBRACE -> parse_object_or_for st span
  | t -> error st (Printf.sprintf "unexpected %s in expression" (Token.describe t))

and parse_parts ~span parts =
  List.map
    (function
      | Token.Lit s -> Ast.Lit s
      | Token.Interp toks ->
          let sub = of_tokens toks in
          let e = parse_expr sub in
          skip_newlines sub;
          if peek sub <> Token.EOF then
            raise
              (Error
                 ( Printf.sprintf "unexpected %s after interpolation"
                     (Token.describe (peek sub)),
                   span ));
          Ast.Interp e)
    parts

and parse_for_clause st =
  (* cursor is just past 'for' *)
  let first =
    match peek st with
    | Token.IDENT v ->
        advance st;
        v
    | _ -> error st "expected variable name after 'for'"
  in
  let key_var, val_var =
    if peek st = Token.COMMA then begin
      advance st;
      match peek st with
      | Token.IDENT v ->
          advance st;
          (Some first, v)
      | _ -> error st "expected second variable name in for-expression"
    end
    else (None, first)
  in
  (match peek st with
  | Token.IDENT "in" -> advance st
  | _ -> error st "expected 'in' in for-expression");
  skip_newlines_in_expr st;
  let coll = parse_expr st in
  skip_newlines_in_expr st;
  expect st Token.COLON;
  skip_newlines_in_expr st;
  (key_var, val_var, coll)

and parse_for_cond st =
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "if" ->
      advance st;
      skip_newlines_in_expr st;
      Some (parse_expr st)
  | _ -> None

and parse_list_or_for st span =
  advance st;
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "for" ->
      advance st;
      let key_var, val_var, coll = parse_for_clause st in
      let body = parse_expr st in
      let cond = parse_for_cond st in
      skip_newlines_in_expr st;
      expect st Token.RBRACKET;
      {
        Ast.desc = Ast.ForList { key_var; val_var; coll; body; cond };
        espan = Loc.merge span st.last;
      }
  | _ ->
      let items = ref [] in
      let rec loop () =
        skip_newlines_in_expr st;
        if peek st = Token.RBRACKET then ()
        else begin
          let e = parse_expr st in
          items := e :: !items;
          skip_newlines_in_expr st;
          match peek st with
          | Token.COMMA ->
              advance st;
              loop ()
          | Token.RBRACKET -> ()
          | t ->
              error st
                (Printf.sprintf "expected ',' or ']' but found %s"
                   (Token.describe t))
        end
      in
      loop ();
      expect st Token.RBRACKET;
      { Ast.desc = Ast.ListLit (List.rev !items); espan = Loc.merge span st.last }

and parse_object_or_for st span =
  advance st;
  skip_newlines_in_expr st;
  match peek st with
  | Token.IDENT "for" ->
      advance st;
      let key_var, val_var, coll = parse_for_clause st in
      let key = parse_expr st in
      skip_newlines_in_expr st;
      expect st Token.FATARROW;
      skip_newlines_in_expr st;
      let value = parse_expr st in
      let cond = parse_for_cond st in
      skip_newlines_in_expr st;
      expect st Token.RBRACE;
      {
        Ast.desc = Ast.ForMap ({ key_var; val_var; coll; body = key; cond }, value);
        espan = Loc.merge span st.last;
      }
  | _ ->
      let kvs = ref [] in
      let rec loop () =
        skip_newlines_in_expr st;
        if peek st = Token.RBRACE then ()
        else begin
          let key =
            match peek st with
            | Token.IDENT k ->
                advance st;
                (* a bare identifier key, unless it's a parenthesised
                   expression key *)
                Ast.Kident k
            | Token.QUOTED [ Token.Lit s ] ->
                advance st;
                Ast.Kident s
            | Token.QUOTED _ | Token.LPAREN ->
                let e = parse_expr st in
                Ast.Kexpr e
            | t ->
                error st
                  (Printf.sprintf "expected object key but found %s"
                     (Token.describe t))
          in
          skip_newlines_in_expr st;
          (match peek st with
          | Token.ASSIGN | Token.COLON -> advance st
          | t ->
              error st
                (Printf.sprintf "expected '=' or ':' in object but found %s"
                   (Token.describe t)));
          skip_newlines_in_expr st;
          let v = parse_expr st in
          kvs := (key, v) :: !kvs;
          skip_newlines_in_expr st;
          match peek st with
          | Token.COMMA ->
              advance st;
              loop ()
          | Token.RBRACE -> ()
          | _ -> loop ()
        end
      in
      loop ();
      expect st Token.RBRACE;
      { Ast.desc = Ast.ObjectLit (List.rev !kvs); espan = Loc.merge span st.last }

(* ------------------------------------------------------------------ *)
(* Blocks and bodies                                                   *)
(* ------------------------------------------------------------------ *)

(** One entry of a body; [End] at the brace or end of input that closes
    it. *)
type item = Attribute of Ast.attribute | Block of Ast.block | End

(* The attributes and blocks [next st] yields, in source order. *)
let collect_body next st : Ast.body =
  let rec loop attrs blocks =
    match next st with
    | End -> { Ast.attrs = List.rev attrs; blocks = List.rev blocks }
    | Attribute a -> loop (a :: attrs) blocks
    | Block b -> loop attrs (b :: blocks)
  in
  loop [] []

(* The next entry of the body under the cursor.  Nested bodies and the
   top-level {!next} both pull from this one loop. *)
let rec next_item st : item =
  skip_newlines st;
  match peek st with
  | Token.RBRACE | Token.EOF -> End
  | Token.IDENT name -> (
      let span = peek_span st in
      advance st;
      match peek st with
      | Token.ASSIGN ->
          advance st;
          skip_newlines_in_expr st;
          let value = parse_expr st in
          let a =
            { Ast.aname = name; avalue = value; aspan = Loc.merge span st.last }
          in
          (match peek st with
          | Token.NEWLINE | Token.RBRACE | Token.EOF -> ()
          | t ->
              error st
                (Printf.sprintf "expected newline after attribute, found %s"
                   (Token.describe t)));
          Attribute a
      | Token.LBRACE | Token.QUOTED _ | Token.IDENT _ ->
          Block (parse_block_after_type st name span)
      | t ->
          error st
            (Printf.sprintf "expected '=' or '{' after %S, found %s" name
               (Token.describe t)))
  | t -> error st (Printf.sprintf "unexpected %s in body" (Token.describe t))

and parse_block_after_type st btype span : Ast.block =
  let labels = ref [] in
  let rec labels_loop () =
    match peek st with
    | Token.QUOTED [ Token.Lit s ] ->
        advance st;
        labels := s :: !labels;
        labels_loop ()
    | Token.QUOTED _ -> error st "block labels must be literal strings"
    | Token.IDENT s ->
        advance st;
        labels := s :: !labels;
        labels_loop ()
    | Token.LBRACE -> ()
    | t ->
        error st
          (Printf.sprintf "expected block label or '{' but found %s"
             (Token.describe t))
  in
  labels_loop ();
  expect st Token.LBRACE;
  let body = collect_body next_item st in
  expect st Token.RBRACE;
  {
    Ast.btype;
    labels = List.rev !labels;
    bbody = body;
    bspan = Loc.merge span st.last;
  }

(** A configuration file being read one top-level entry at a time. *)
type items = state

(** Start reading the top level of [src].  Tokens are pulled from the
    lexer as the parser needs them, so whichever error comes first in
    the source is the one raised: an {!Error} at a token wins over a
    {!Lexer.Error} further on. *)
let items ~file src : items = of_lexer (Lexer.make ~file src)

(** The next top-level attribute or block, fully parsed; at the end of
    input, [End] (again on every further call).  Nothing before it is
    retained, so a caller that decodes and drops each entry never holds
    the whole file's AST. *)
let next (st : items) : item =
  match next_item st with
  | End when peek st <> Token.EOF ->
      error st
        (Printf.sprintf "unexpected %s at top level" (Token.describe (peek st)))
  | item -> item

(** Parse a configuration file from source text: every entry {!next}
    yields. *)
let parse ~file src : Ast.body = collect_body next (items ~file src)

(** Parse a single standalone expression (used by the REPL-ish tools and
    by tests). *)
let parse_expr_string ?(file = "<expr>") src : Ast.expr =
  let st = of_lexer (Lexer.make ~file src) in
  skip_newlines st;
  let e = parse_expr st in
  skip_newlines st;
  if peek st <> Token.EOF then
    error st
      (Printf.sprintf "unexpected %s after expression"
         (Token.describe (peek st)));
  e
