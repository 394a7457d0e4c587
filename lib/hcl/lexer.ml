(** Hand-written pull lexer for the HCL subset.

    Handles [#], [//] and [/* ... */] comments, decimal integers and
    floats, identifiers, operators, double-quoted string templates with
    [${...}] interpolation (lexed recursively so nested strings inside
    interpolations work), and [<<EOF]/[<<-EOF] heredocs.

    {!next} scans one token at a time: the parser pulls tokens on demand
    with one token of lookahead, so no token list is built for a whole
    file.  {!tokenize} collects the same stream into a list (tests use
    it); interpolations are collected the same way into their
    [Token.Interp] part.

    Newlines are significant in HCL (they terminate attribute
    definitions), so the lexer emits [NEWLINE] tokens; the parser decides
    where they matter. *)

exception Error of string * Loc.span

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make ~file src = { src; file; pos = 0; line = 1; col = 1 }

let cur_pos st : Loc.pos = { line = st.line; col = st.col; offset = st.pos }

let span_from st (start : Loc.pos) =
  Loc.make ~file:st.file ~start_pos:start ~end_pos:(cur_pos st)

let error st start msg = raise (Error (msg, span_from st start))

let at_end st = st.pos >= String.length st.src

(* The character under the cursor (or one past it), ['\000'] past the
   end of input.  Nothing is allocated per character; a caller that must
   tell a NUL byte from the end of input tests [at_end]. *)
let peek st =
  if st.pos < String.length st.src then String.unsafe_get st.src st.pos
  else '\000'

let peek2 st =
  if st.pos + 1 < String.length st.src then String.unsafe_get st.src (st.pos + 1)
  else '\000'

let advance st =
  if st.pos < String.length st.src then
    if String.unsafe_get st.src st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
  st.pos <- st.pos + 1

(* Move the cursor to [stop], over characters that hold no newline. *)
let skip_to st stop =
  st.col <- st.col + (stop - st.pos);
  st.pos <- stop

(* The end of the run of characters satisfying [p] that starts at [i]. *)
let rec scan_while src p i =
  if i < String.length src && p (String.unsafe_get src i) then
    scan_while src p (i + 1)
  else i

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '-'
let not_newline c = c <> '\n'

(* Characters copied verbatim into a quoted string's literal text. *)
let is_plain_string_char c = c <> '"' && c <> '\\' && c <> '$' && c <> '\n'

(* Skip spaces, tabs, carriage returns and comments.  Newlines are NOT
   skipped: they become tokens. *)
let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' ->
      skip_to st (st.pos + 1);
      skip_trivia st
  | '#' ->
      skip_line_comment st;
      skip_trivia st
  | '/' when peek2 st = '/' ->
      skip_line_comment st;
      skip_trivia st
  | '/' when peek2 st = '*' ->
      skip_block_comment st;
      skip_trivia st
  | _ -> ()

and skip_line_comment st = skip_to st (scan_while st.src not_newline st.pos)

and skip_block_comment st =
  let start = cur_pos st in
  advance st;
  advance st;
  let rec loop () =
    if at_end st then error st start "unterminated block comment"
    else if peek st = '*' && peek2 st = '/' then begin
      advance st;
      advance st
    end
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let lex_ident st =
  let start = st.pos in
  skip_to st (scan_while st.src is_ident_char start);
  String.sub st.src start (st.pos - start)

let skip_digits st = skip_to st (scan_while st.src is_digit st.pos)

let lex_number st start =
  let begin_pos = st.pos in
  skip_digits st;
  let is_float = ref false in
  if peek st = '.' && is_digit (peek2 st) then begin
    is_float := true;
    advance st;
    skip_digits st
  end;
  (match peek st with
  | 'e' | 'E' ->
      is_float := true;
      advance st;
      (match peek st with '+' | '-' -> advance st | _ -> ());
      skip_digits st
  | _ -> ());
  let text = String.sub st.src begin_pos (st.pos - begin_pos) in
  let invalid () = error st start (Printf.sprintf "invalid number %S" text) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Token.FLOAT f
    | None -> invalid ()
  else match int_of_string_opt text with Some n -> Token.INT n | None -> invalid ()

let rec lex_one st start c : Token.t =
  match c with
  | '\n' ->
      advance st;
      Token.NEWLINE
  | '{' ->
      advance st;
      Token.LBRACE
  | '}' ->
      advance st;
      Token.RBRACE
  | '[' ->
      advance st;
      Token.LBRACKET
  | ']' ->
      advance st;
      Token.RBRACKET
  | '(' ->
      advance st;
      Token.LPAREN
  | ')' ->
      advance st;
      Token.RPAREN
  | ',' ->
      advance st;
      Token.COMMA
  | ':' ->
      advance st;
      Token.COLON
  | '?' ->
      advance st;
      Token.QUESTION
  | '+' ->
      advance st;
      Token.PLUS
  | '-' ->
      advance st;
      Token.MINUS
  | '*' ->
      advance st;
      Token.STAR
  | '%' ->
      advance st;
      Token.PERCENT
  | '/' ->
      advance st;
      Token.SLASH
  | '.' ->
      if peek2 st = '.' then begin
        advance st;
        advance st;
        match peek st with
        | '.' ->
            advance st;
            Token.ELLIPSIS
        | _ -> error st start "expected '...'"
      end
      else begin
        advance st;
        Token.DOT
      end
  | '=' -> (
      advance st;
      match peek st with
      | '=' ->
          advance st;
          Token.EQ
      | '>' ->
          advance st;
          Token.FATARROW
      | _ -> Token.ASSIGN)
  | '!' -> (
      advance st;
      match peek st with
      | '=' ->
          advance st;
          Token.NEQ
      | _ -> Token.NOT)
  | '<' -> (
      advance st;
      match peek st with
      | '=' ->
          advance st;
          Token.LE
      | '<' ->
          advance st;
          lex_heredoc st start
      | _ -> Token.LT)
  | '>' -> (
      advance st;
      match peek st with
      | '=' ->
          advance st;
          Token.GE
      | _ -> Token.GT)
  | '&' -> (
      advance st;
      match peek st with
      | '&' ->
          advance st;
          Token.AND
      | _ -> error st start "expected '&&'")
  | '|' -> (
      advance st;
      match peek st with
      | '|' ->
          advance st;
          Token.OR
      | _ -> error st start "expected '||'")
  | '"' ->
      advance st;
      Token.QUOTED (lex_string_parts st start)
  | c when is_digit c -> lex_number st start
  | c when is_ident_start c -> Token.IDENT (lex_ident st)
  | c -> error st start (Printf.sprintf "unexpected character %C" c)

(* Body of a double-quoted string, cursor just past the opening quote.
   A string without escapes or interpolations (the common case) is one
   [String.sub]. *)
and lex_string_parts st start : Token.str_part list =
  let stop = scan_while st.src is_plain_string_char st.pos in
  if stop < String.length st.src && String.unsafe_get st.src stop = '"' then begin
    let text = String.sub st.src st.pos (stop - st.pos) in
    skip_to st (stop + 1);
    if text = "" then [] else [ Token.Lit text ]
  end
  else lex_template_parts st start

and lex_template_parts st start =
  let buf = Buffer.create 16 in
  let parts = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Token.Lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_end st then error st start "unterminated string";
    match peek st with
    | '"' ->
        advance st;
        flush ()
    | '\\' ->
        advance st;
        if at_end st then error st start "unterminated string";
        (match peek st with
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '$' -> Buffer.add_char buf '$'
        | c -> error st start (Printf.sprintf "invalid escape '\\%c'" c));
        advance st;
        loop ()
    | '$' when peek2 st = '{' ->
        flush ();
        advance st;
        advance st;
        parts := Token.Interp (lex_interp st start) :: !parts;
        loop ()
    | '\n' -> error st start "newline in string literal"
    | _ ->
        (* the character under the cursor (a plain one, or a '$' that
           opens no interpolation) and the plain run after it *)
        let from = st.pos in
        skip_to st (scan_while st.src is_plain_string_char (from + 1));
        Buffer.add_substring buf st.src from (st.pos - from);
        loop ()
  in
  loop ();
  List.rev !parts

(* Tokens of a ${...} interpolation, up to the matching '}', collected
   into a list ending in EOF.  Braces nest (e.g. object literals inside
   interpolations). *)
and lex_interp st start : Token.spanned list =
  let rec loop depth acc =
    skip_trivia st;
    let tok_start = cur_pos st in
    if at_end st then error st start "unterminated interpolation";
    match peek st with
    | '}' when depth = 0 ->
        advance st;
        List.rev ({ Token.tok = Token.EOF; span = span_from st tok_start } :: acc)
    | c ->
        let tok = lex_one st tok_start c in
        let depth =
          match tok with
          | Token.LBRACE -> depth + 1
          | Token.RBRACE -> depth - 1
          | _ -> depth
        in
        loop depth ({ Token.tok; span = span_from st tok_start } :: acc)
  in
  loop 0 []

(* <<EOF / <<-EOF heredoc; cursor just past "<<". *)
and lex_heredoc st start : Token.t =
  let indent_mode =
    if peek st = '-' then begin
      advance st;
      true
    end
    else false
  in
  let tag = lex_ident st in
  if tag = "" then error st start "expected heredoc tag after '<<'";
  if peek st = '\n' then advance st
  else error st start "expected newline after heredoc tag";
  (* Collect raw lines until a line equal to the tag (modulo leading
     whitespace when in indent mode).  The newline after the closing
     tag is left for the parser: it ends the attribute.  The tag may
     also end the input. *)
  let strip s = String.trim s in
  let rec collect acc =
    let from = st.pos in
    skip_to st (scan_while st.src not_newline from);
    let l = String.sub st.src from (st.pos - from) in
    if strip l = tag then List.rev acc
    else if at_end st then error st start "unterminated heredoc"
    else begin
      advance st;
      collect (l :: acc)
    end
  in
  let lines = collect [] in
  let lines =
    if not indent_mode then lines
    else
      (* <<- strips the common leading whitespace *)
      let leading s =
        let n = String.length s in
        let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\t') then go (i + 1) else i in
        go 0
      in
      let min_indent =
        List.fold_left
          (fun acc l -> if strip l = "" then acc else min acc (leading l))
          max_int lines
      in
      let min_indent = if min_indent = max_int then 0 else min_indent in
      List.map
        (fun l ->
          if String.length l >= min_indent then
            String.sub l min_indent (String.length l - min_indent)
          else l)
        lines
  in
  let text = String.concat "\n" lines ^ if lines = [] then "" else "\n" in
  (* Re-lex the body for ${...} interpolations. *)
  Token.HEREDOC (template_parts ~file:st.file text)

(* Split raw template text into Lit/Interp parts (used by heredocs). *)
and template_parts ~file text : Token.str_part list =
  let st = make ~file text in
  let buf = Buffer.create 32 in
  let parts = ref [] in
  let flush () =
    if Buffer.length buf > 0 then begin
      parts := Token.Lit (Buffer.contents buf) :: !parts;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_end st then flush ()
    else if peek st = '$' && peek2 st = '{' then begin
      flush ();
      advance st;
      advance st;
      parts := Token.Interp (lex_interp st (cur_pos st)) :: !parts;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !parts

(** The next token of the stream; at the end of input, [EOF] (again on
    every further call). *)
let next st : Token.spanned =
  skip_trivia st;
  let start = cur_pos st in
  let tok = if at_end st then Token.EOF else lex_one st start (peek st) in
  { Token.tok; span = span_from st start }

(** Tokenize a full source file: the {!next} stream up to and including
    [EOF], as a list. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec loop acc =
    match next st with
    | { Token.tok = Token.EOF; _ } as t -> List.rev (t :: acc)
    | t -> loop (t :: acc)
  in
  loop []
