(* The HCL front end as a whole: its output pinned by digest (every AST
   node and every span), the order in which it reports errors, how its
   allocation grows with the input, and what it does with mangled
   input. *)

open Cloudless_hcl
module State = Cloudless_state.State
module Smap = Value.Smap

let check = Alcotest.check
let string_ = Alcotest.string
let bool_ = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* A printer that shows every node and every span                      *)
(* ------------------------------------------------------------------ *)

let pp_pos b (p : Loc.pos) = Printf.bprintf b "%d:%d:%d" p.line p.col p.offset

let pp_span b (s : Loc.span) =
  Printf.bprintf b "<%s %a-%a>" s.file pp_pos s.start_pos pp_pos s.end_pos

let binop_name : Ast.binop -> string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr b (e : Ast.expr) =
  let str s = Printf.bprintf b " %S" s in
  let sub e =
    Buffer.add_char b ' ';
    pp_expr b e
  in
  let opt = function Some e -> sub e | None -> Buffer.add_string b " -" in
  let for_clause (fc : Ast.for_clause) =
    (match fc.key_var with Some k -> str k | None -> Buffer.add_string b " -");
    str fc.val_var;
    sub fc.coll;
    sub fc.body;
    opt fc.cond
  in
  Buffer.add_char b '(';
  (match e.desc with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Printf.bprintf b "bool %b" x
  | Int n -> Printf.bprintf b "int %d" n
  | Float f -> Printf.bprintf b "float %h" f
  | Template parts ->
      Buffer.add_string b "tpl";
      List.iter
        (function
          | Ast.Lit s -> str s
          | Ast.Interp e ->
              Buffer.add_string b " $";
              pp_expr b e)
        parts
  | Var v -> Printf.bprintf b "var %S" v
  | GetAttr (e, n) ->
      Buffer.add_string b "get";
      sub e;
      str n
  | Index (e, i) ->
      Buffer.add_string b "index";
      sub e;
      sub i
  | Splat (e, n) ->
      Buffer.add_string b "splat";
      sub e;
      str n
  | ListLit es ->
      Buffer.add_string b "list";
      List.iter sub es
  | ObjectLit kvs ->
      Buffer.add_string b "object";
      List.iter
        (fun (k, v) ->
          (match k with
          | Ast.Kident s -> Printf.bprintf b " [%S]" s
          | Ast.Kexpr e ->
              Buffer.add_string b " [";
              pp_expr b e;
              Buffer.add_char b ']');
          sub v)
        kvs
  | Call (f, args, expand) ->
      Printf.bprintf b "call %S %b" f expand;
      List.iter sub args
  | Unop (op, e) ->
      Buffer.add_string b (match op with Neg -> "neg" | Not -> "not");
      sub e
  | Binop (op, l, r) ->
      Printf.bprintf b "binop %s" (binop_name op);
      sub l;
      sub r
  | Cond (c, x, y) ->
      Buffer.add_string b "cond";
      sub c;
      sub x;
      sub y
  | ForList fc ->
      Buffer.add_string b "forlist";
      for_clause fc
  | ForMap (fc, v) ->
      Buffer.add_string b "formap";
      for_clause fc;
      sub v
  | Paren e ->
      Buffer.add_string b "paren";
      sub e);
  Buffer.add_char b ' ';
  pp_span b e.espan;
  Buffer.add_char b ')'

let rec pp_body b (body : Ast.body) =
  List.iter
    (fun (a : Ast.attribute) ->
      Printf.bprintf b "(attr %S " a.aname;
      pp_expr b a.avalue;
      Buffer.add_char b ' ';
      pp_span b a.aspan;
      Buffer.add_string b ")\n")
    body.attrs;
  List.iter
    (fun (bl : Ast.block) ->
      Printf.bprintf b "(block %S" bl.btype;
      List.iter (Printf.bprintf b " %S") bl.labels;
      Buffer.add_char b '\n';
      pp_body b bl.bbody;
      pp_span b bl.bspan;
      Buffer.add_string b ")\n")
    body.blocks

(* The parse of [src] as text: the whole AST, or the error raised. *)
let parse_dump ~file src =
  let b = Buffer.create 4096 in
  (match Parser.parse ~file src with
  | body -> pp_body b body
  | exception Lexer.Error (msg, span) ->
      Printf.bprintf b "lex-error %S " msg;
      pp_span b span
  | exception Parser.Error (msg, span) ->
      Printf.bprintf b "parse-error %S " msg;
      pp_span b span);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* Every construct of the grammar, and every kind of trivia. *)
let syntax_tour =
  {|# line comment
// another line comment
/* a block
   comment */
terraform {}

variable "names" {
  type    = list(string)
  default = ["a", "b", "c"]
}

variable "enabled" { default = true }

locals {
  prefix  = "app-${var.names[0]}"
  nested  = "x-${ { a = 1 }["a"] }-${"inner ${var.names.1}"}"
  escaped = "tab\there \"quoted\" back\\slash \${literal} $plain"
  numbers = [1, 2.5, 3e2, 4.25E-1, 0, -7, !false]
  empty   = ""
  maths   = (1 + 2) * 3 - 4 / 5 % 6
  logic   = 1 < 2 && 2 <= 3 || 3 > 4 && !(4 >= 5) || 1 == 1 && 2 != 3
  choice  = var.enabled ? "on" : "off"
  multi   = var.enabled ?
    "yes" :
    "no"
  nothing = null
  obj = {
    plain       = 1
    "quoted"    = 2
    ("paren")   = 3
    colon: 4,
    "${var.names[1]}" = 5
  }
  list_for = [for i, n in var.names : upper(n) if i > 0]
  map_for  = {
    for n in var.names :
    n => length(n)
    if n != "b"
  }
  called   = merge({ a = 1 }, { b = 2 }, )
  expanded = max(var.numbers...)
  splats   = [aws_subnet.s[*].id, aws_subnet.s.*.cidr_block]
  indexed  = aws_subnet.s[1 + 1].tags["Name"]
  doc      = <<EOF
plain ${var.names[0]}
  kept indent
EOF
}

data "aws_region" "current" {}

resource "aws_subnet" "s" {
  count      = 3
  cidr_block = cidrsubnet("10.0.0.0/16", 8, count.index)
  tags = {
    Name = "s-${count.index}"
  }

  lifecycle {
    create_before_destroy = true
    ignore_changes        = [tags]
  }
}

resource "aws_instance" "web" {
  for_each   = toset(var.names)
  ami        = "ami-123"
  subnet_id  = aws_subnet.s[0].id
  depends_on = [aws_subnet.s]

  ebs_block_device {
    size = 10
  }
  ebs_block_device {
    size = 20
  }
}

module "net" {
  source = "./network"
  cidr   = "10.0.0.0/16"
}

output "ids" {
  value       = [for k, v in aws_instance.web : v.id]
  description = <<-EOT
    first
      second ${local.prefix}
    EOT
}
|}

let examples =
  [
    ("figure2.tf", Test_fixtures.figure2);
    ("tour.tf", syntax_tour);
    ("empty.tf", "");
    ("blank.tf", "\n\n  # only trivia\n\n");
    ("crlf.tf", "resource \"a_b\" \"c\" {\r\n  x = 1\r\n}\r\n");
    ("no_final_newline.tf", "resource \"a_b\" \"c\" { x = \"y\" }");
    (* single errors: the diagnostic is pinned too *)
    ("lex_char.tf", "a = @");
    ("lex_string.tf", "a = \"open\nb = 1\n");
    ("lex_unterminated.tf", "a = \"open");
    ("lex_escape.tf", "a = \"\\q\"\n");
    ("lex_comment.tf", "a = 1 /* never closed\n");
    ("lex_heredoc.tf", "a = <<EOF\nbody\n");
    ("lex_interp.tf", "a = \"${var.x\n");
    ("lex_and.tf", "a = b & c\n");
    ("parse_missing_value.tf", "resource \"aws_vpc\" \"main\" {\n  cidr_block = \n");
    ("parse_label.tf", "resource \"a_${x}\" \"b\" {}\n");
    ("parse_unclosed.tf", "resource \"a\" \"b\" {\n  x = [1, 2\n}\n");
    ("parse_interp.tf", "a = \"${1 +}\"\n");
    ("parse_top.tf", "}\n");
    ("parse_attr_tail.tf", "a = 1 2\n");
  ]

(* A generated configuration of [n] resources, written the way people
   write them: variables, locals, interpolations, references, nested
   blocks, count and for_each. *)
let gen_config n =
  let b = Buffer.create (n * 200) in
  Buffer.add_string b
    "variable \"env\" { default = \"prod\" }\n\
     locals {\n\
    \  base = \"10.0.0.0/8\"\n\
     }\n\n";
  for i = 0 to n - 1 do
    match i mod 4 with
    | 0 ->
        Printf.bprintf b
          "resource \"aws_vpc\" \"v%d\" {\n\
          \  cidr_block = cidrsubnet(local.base, 16, %d)\n\
          \  tags = {\n\
          \    Name = \"${var.env}-v%d\"\n\
          \    Tier = \"net\"\n\
          \  }\n\
           }\n\n"
          i i i
    | 1 ->
        Printf.bprintf b
          "resource \"aws_subnet\" \"s%d\" {\n\
          \  count      = %d\n\
          \  vpc_id     = aws_vpc.v%d.id\n\
          \  cidr_block = cidrsubnet(aws_vpc.v%d.cidr_block, 8, count.index)\n\
           }\n\n"
          i (1 + (i mod 3)) (i - 1) (i - 1)
    | 2 ->
        Printf.bprintf b
          "resource \"aws_instance\" \"i%d\" {\n\
          \  for_each      = toset([\"a\", \"b\"])\n\
          \  instance_type = var.env == \"prod\" ? \"m5.large\" : \"t3.micro\"\n\
          \  subnet_id     = aws_subnet.s%d[0].id\n\
          \  weight        = %d.5\n\
          \  depends_on    = [aws_vpc.v%d]\n\n\
          \  ebs_block_device {\n\
          \    size = %d\n\
          \  }\n\
           }\n\n"
          i (i - 1) i (i - 2) (8 * (i mod 5))
    | _ ->
        Printf.bprintf b
          "resource \"aws_security_group\" \"g%d\" {\n\
          \  name    = \"sg-%d\" # trailing comment\n\
          \  ingress = [for p in [80, 443] : { port = p, cidr = \"0.0.0.0/0\" }]\n\
           }\n\n"
          i i
  done;
  Buffer.contents b

(* A state of [n] rows, with every kind of value and strings that need
   escaping. *)
let gen_state n =
  let row i =
    let addr =
      Addr.make ~rtype:"aws_instance" ~rname:(Printf.sprintf "web%d" (i / 3))
        ~key:(Addr.Kint (i mod 3)) ()
    in
    let attrs =
      Smap.of_seq @@ List.to_seq
        [
          ("id", Value.Vstring (Printf.sprintf "i-%06d" i));
          ("instance_type", Value.Vstring "m5.large");
          ("count", Value.Vint i);
          ("ratio", Value.Vfloat (float_of_int i /. 7.));
          ("public", Value.Vbool (i mod 2 = 0));
          ("nothing", Value.Vnull);
          ("note", Value.Vstring "say \"hi\" \\ ${not.a.ref} \t tab");
          ("ports", Value.Vlist [ Value.Vint 80; Value.Vint 443 ]);
          ( "tags",
            Value.of_assoc
              [
                ("Name", Value.Vstring (Printf.sprintf "web-%d" i));
                ("Team", Value.Vstring "infra");
              ] );
        ]
    in
    {
      State.addr;
      cloud_id = Printf.sprintf "i-%06d" i;
      rtype = "aws_instance";
      region = "us-east-1";
      attrs;
      deps =
        (if i = 0 then []
         else [ Addr.make ~rtype:"aws_subnet" ~rname:"s" ~key:(Addr.Kint (i mod 4)) () ]);
    }
  in
  let st = ref State.empty in
  for i = 0 to n - 1 do
    st := State.add !st (row i)
  done;
  State.set_outputs !st
    [ ("first", Value.Vstring "i-000000"); ("total", Value.Vint n) ]

let inputs () =
  examples
  @ [
      ("generated_2k.tf", gen_config 2000);
      ("state.cls", State.to_string (gen_state 300));
    ]

(* ------------------------------------------------------------------ *)
(* Equivalence: the front end's output, pinned                         *)
(* ------------------------------------------------------------------ *)

(* MD5 of [parse_dump] for each input, as the token-list front end (the
   lexer tokenized the whole file before parsing began) produced them.
   The streaming front end must reproduce every one. *)
let expected_digests =
  [
    ("figure2.tf", "74e00f72973d52c16705846c4182f63b");
    ("tour.tf", "97295a56b219d9cb4ed81a22db322be9");
    ("empty.tf", "d41d8cd98f00b204e9800998ecf8427e");
    ("blank.tf", "d41d8cd98f00b204e9800998ecf8427e");
    ("crlf.tf", "7fd05f367e5247194c055783a50bfd0a");
    ("no_final_newline.tf", "e417be4349514fca3c2a34a31bbcd8d1");
    ("lex_char.tf", "b7e4af86d9503ed3d798d084b014d375");
    ("lex_string.tf", "05b149dada70c20c848a4d9cf63589a0");
    ("lex_unterminated.tf", "29a01e5356b1d91e205e17fd7baeb835");
    ("lex_escape.tf", "50b0fcbea34a25b56d53ae1b5d6c7d64");
    ("lex_comment.tf", "58ae996f92f9cf6ce34bead0e083b908");
    ("lex_heredoc.tf", "a3cf8f293cb08ef9bd06c8a7036858fb");
    ("lex_interp.tf", "4a60e93884b307425316b5c39e5e3973");
    ("lex_and.tf", "ab2229d2a169a9c19d39e7962e4adfff");
    ("parse_missing_value.tf", "58326fd43ca802b3426495d43f74138b");
    ("parse_label.tf", "8cbd2253c20acb9d47f8f5db045a6be9");
    ("parse_unclosed.tf", "36c28b189cf0296ff05b80ca42eacc24");
    ("parse_interp.tf", "3dfdd3e83cf02431dc23f5324432ef97");
    ("parse_top.tf", "8705e74e0fe827eedd58045f844aacef");
    ("parse_attr_tail.tf", "d8d95236fe659e5d04be40ea6bbb4a7c");
    ("generated_2k.tf", "23c95e125c9431964e03d3d28b77f00d");
    ("state.cls", "19925498b4b12cf4ef02ecaf9c35e43b");
  ]

let test_parse_output_unchanged () =
  List.iter
    (fun (file, src) ->
      let expect_error =
        String.starts_with ~prefix:"lex_" file
        || String.starts_with ~prefix:"parse_" file
      in
      let dump = parse_dump ~file src in
      let head = String.sub dump 0 (min 120 (String.length dump)) in
      check bool_
        (Printf.sprintf "%s fails as intended (%s)" file head)
        expect_error
        (String.starts_with ~prefix:"lex-error" dump
        || String.starts_with ~prefix:"parse-error" dump))
    (inputs ());
  check
    Alcotest.(list (pair string string))
    "digest of each parse" expected_digests
    (List.map
       (fun (file, src) ->
         (file, Digest.to_hex (Digest.string (parse_dump ~file src))))
       (inputs ()))

(* ------------------------------------------------------------------ *)
(* Error precedence                                                    *)
(* ------------------------------------------------------------------ *)

let error_of src =
  match Parser.parse ~file:"t" src with
  | _ -> "no error"
  | exception Lexer.Error (msg, span) ->
      Printf.sprintf "lex-error %s: %s" (Loc.to_string span) msg
  | exception Parser.Error (msg, span) ->
      Printf.sprintf "parse-error %s: %s" (Loc.to_string span) msg

(* Tokens are lexed as the parser reaches them, so of two errors the one
   earlier in the source is reported, whatever its kind.  (When the
   whole file was lexed before parsing, any lexer error won.) *)
let test_errors_in_source_order () =
  check string_ "parse error before a lexer error"
    "parse-error t:1:5-6: unexpected ')' in expression"
    (error_of "a = )\nb = @\n");
  check string_ "lexer error before a parse error"
    "lex-error t:1:5-5: unexpected character '@'"
    (error_of "a = @\nb = )\n");
  check string_ "error inside an interpolation, then a lexer error"
    "parse-error t:1:11-12: unexpected end of input in expression"
    (error_of "a = \"${1 +}\" @\n");
  let code src =
    match
      (Cloudless_validate.Validate.validate_source ~file:"t" src)
        .Cloudless_validate.Validate.diagnostics
    with
    | d :: _ -> d.Cloudless_validate.Diagnostic.code
    | [] -> "none"
  in
  check string_ "validate reports the first error's code" "parse-error"
    (code "a = )\nb = @\n");
  check string_ "validate reports a leading lexer error" "lex-error"
    (code "a = @\nb = )\n")

(* ------------------------------------------------------------------ *)
(* Allocation grows linearly                                           *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words [f] allocates.  Allocation is deterministic where
   time is not, and a quadratic step (an append per block, a scan of
   everything seen so far) shows up as a per-item cost that grows with
   the input. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let per_item_ratio ~small ~large run =
  let per n = minor_words (run n) /. float_of_int n in
  per large /. per small

let test_config_allocation_linear () =
  let run n =
    let src = gen_config n in
    fun () -> Config.parse ~file:"gen.tf" src
  in
  let ratio = per_item_ratio ~small:500 ~large:2000 run in
  check bool_
    (Printf.sprintf "words per block at 2000 vs 500 blocks: %.3fx (<= 1.5x)" ratio)
    true (ratio <= 1.5)

let test_state_allocation_linear () =
  let run n =
    let src = State.to_string (gen_state n) in
    fun () -> State.of_string src
  in
  let ratio = per_item_ratio ~small:500 ~large:2000 run in
  check bool_
    (Printf.sprintf "words per row at 2000 vs 500 rows: %.3fx (<= 1.5x)" ratio)
    true (ratio <= 1.5)

(* The state file's round trip on the generated 2000-row state, per
   row.  The writer fills one buffer with no AST; the loader decodes
   and drops one block at a time, so what survives a minor collection
   is the state it builds and little else.  (A loader that parsed the
   whole file first promoted every block's AST: about 770 words a row,
   against the 186 measured here.)  Each bound is 1.5x the measured
   value. *)
let state_rows = 2000

let test_state_writer_allocation () =
  let st = gen_state state_rows in
  let per_row = minor_words (fun () -> State.to_string st) /. float_of_int state_rows in
  check bool_
    (Printf.sprintf "State.to_string: %.1f minor words per row (<= 265)" per_row)
    true (per_row <= 265.)

let test_state_loader_promotion () =
  let src = State.to_string (gen_state state_rows) in
  let promoted () =
    let _, p, _ = Gc.counters () in
    p
  in
  Gc.minor ();
  let before = promoted () in
  ignore (Sys.opaque_identity (State.of_string src));
  let per_row = (promoted () -. before) /. float_of_int state_rows in
  check bool_
    (Printf.sprintf "State.of_string: %.1f promoted words per row (<= 280)"
       per_row)
    true (per_row <= 280.)

(* ------------------------------------------------------------------ *)
(* Mangled input                                                       *)
(* ------------------------------------------------------------------ *)

(* Truncations and byte flips of valid configurations.  Flips favour
   the characters that open or close a construct. *)
let mangled =
  let bases =
    [| Test_fixtures.figure2; syntax_tour; gen_config 12 |]
  in
  let interesting = "\"{}[]()$\\\n/*#<-=.,?:!&|e0 \000\255" in
  let open QCheck.Gen in
  let gen =
    int_bound (Array.length bases - 1) >>= fun k ->
    let base = bases.(k) in
    let len = String.length base in
    oneof
      [
        map (fun cut -> String.sub base 0 cut) (int_bound len);
        ( pair (int_bound (len - 1))
            (oneof
               [
                 map (String.get interesting)
                   (int_bound (String.length interesting - 1));
                 char;
               ])
        >|= fun (i, c) -> String.mapi (fun j x -> if j = i then c else x) base );
        ( pair (int_bound (len - 1)) (int_range 1 8) >|= fun (i, n) ->
          String.sub base 0 i
          ^ String.sub base (min len (i + n)) (len - min len (i + n)) );
      ]
  in
  QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_mangled_input_fails_located =
  QCheck.Test.make ~count:1500
    ~name:"mangled configs parse or fail with a located span" mangled
    (fun src ->
      match Parser.parse ~file:"m.tf" src with
      | _ -> true
      | exception (Lexer.Error (_, span) | Parser.Error (_, span)) ->
          (not (Loc.is_dummy span))
          && span.Loc.file = "m.tf"
          && span.Loc.start_pos.Loc.offset <= String.length src)

let suites =
  [
    ( "hcl.frontend",
      [
        Alcotest.test_case "parse output unchanged" `Quick
          test_parse_output_unchanged;
        Alcotest.test_case "errors in source order" `Quick
          test_errors_in_source_order;
        Alcotest.test_case "config allocation linear" `Quick
          test_config_allocation_linear;
        Alcotest.test_case "state allocation linear" `Quick
          test_state_allocation_linear;
        Alcotest.test_case "state writer allocation" `Quick
          test_state_writer_allocation;
        Alcotest.test_case "state loader promotion" `Quick
          test_state_loader_promotion;
        QCheck_alcotest.to_alcotest prop_mangled_input_fails_located;
      ] );
  ]
