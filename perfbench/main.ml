(* perfbench: the repository benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload in this process and prints, as the last line of
   standard output, one JSON object with the keys correct, attempted,
   failed and metrics: the end-to-end metrics with --trace 0, the
   per-layer breakdown with --trace 1.  Exit code 0 when every output
   check passed, 1 when one failed, 2 on a usage error.  See
   perfbench/README.md. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload (apply_fleet|apply_edit|serve_fleet) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with Some n -> seed := n; parse rest | None -> usage ())
    | "--seconds" :: s :: rest -> (
        match float_of_string_opt s with
        | Some s when s > 0. -> seconds := s; parse rest
        | _ -> usage ())
    | "--trace" :: t :: rest -> (
        match t with
        | "0" | "1" -> trace := int_of_string t; parse rest
        | _ -> usage ())
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = !seed and seconds = !seconds in
  let spans_out = Printf.sprintf "perfbench-spans-%s-%d.jsonl" !workload seed in
  let correct =
    match (!workload, !trace) with
    | "apply_fleet", 0 -> Apply_bench.run_e2e ~kind:Apply_bench.Fleet ~seed ~seconds
    | "apply_edit", 0 -> Apply_bench.run_e2e ~kind:Apply_bench.Edit ~seed ~seconds
    | "serve_fleet", 0 -> Serve_bench.run_e2e ~seed ~seconds
    | "apply_fleet", 1 ->
        Apply_bench.run_traced ~kind:Apply_bench.Fleet ~seed ~seconds ~spans_out
    | "apply_edit", 1 ->
        Apply_bench.run_traced ~kind:Apply_bench.Edit ~seed ~seconds ~spans_out
    | "serve_fleet", 1 -> Serve_bench.run_traced ~seed ~seconds ~spans_out
    | _ -> usage ()
  in
  exit (if correct then 0 else 1)
