(* Clocks, statistics, scratch files and the result line shared by the
   workloads. *)

(* Host time comes from the monotonic clock bechamel ships; wall-clock
   time ([Unix.gettimeofday]) can step under NTP and is never used. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated by this domain so far (minor + direct major). *)
let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median: no samples"
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Seconds per call of [f]: the median over 5 batches of [n] calls. *)
let per_call ~n f =
  let batch () =
    snd
      (time (fun () ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (f ()))
           done))
  in
  median (List.init 5 (fun _ -> batch () /. float_of_int n))

(* --- traced runs -------------------------------------------------- *)

module Trace = Cloudless_obs.Trace

(* A tracer for one traced repetition: spans on the monotonic clock,
   kept in memory, each tagged with the repetition as meta "run".  The
   program itself keeps its null tracer, so traced and untraced runs
   execute the same code. *)
type tracer = { trace : Trace.t; run : string; recorded : unit -> Trace.span list }

let tracer ~run =
  let sink, recorded = Trace.memory_sink () in
  { trace = Trace.create ~wall_clock:now sink; run = string_of_int run; recorded }

(* [f] in a span; the words it allocated become the span's "words"
   counter. *)
let span t name f =
  Trace.with_span t.trace ~meta:[ ("run", t.run) ] name (fun () ->
      let w0 = words () in
      let r = f () in
      Trace.count t.trace "words" (int_of_float (words () -. w0));
      r)

let duration (s : Trace.span) = s.Trace.wall_end -. s.Trace.wall_start
let find_span t name = List.find (fun (s : Trace.span) -> s.Trace.name = name) (t.recorded ())
let span_words (s : Trace.span) = float_of_int (Trace.counter s "words")

(* The spans that ran inside [p], [p] included. *)
let spans_in t (p : Trace.span) =
  List.filter
    (fun (s : Trace.span) ->
      s.Trace.wall_start >= p.Trace.wall_start && s.Trace.wall_end <= p.Trace.wall_end)
    (t.recorded ())

(* The part of [p] its direct children cover (calls are sequential, so
   children never overlap). *)
let children_time t (p : Trace.span) =
  List.fold_left
    (fun acc (s : Trace.span) ->
      if s.Trace.depth = p.Trace.depth + 1 then acc +. duration s else acc)
    0. (spans_in t p)

let write_spans path tracers =
  Trace.write_jsonl ~path (List.concat_map (fun t -> t.recorded ()) tracers)

(* The traced root span against the untraced run of the same
   repetition.  One pair per repetition: it varies with the host's
   speed, not with what tracing costs, so it is printed, not reported
   as a metric. *)
let ratio_note ratios =
  Printf.sprintf "traced / untraced wall time, paired per repetition: median %.3f"
    (median ratios)

(* What recording the spans of [p] cost: the count of spans inside it
   times the cost of one span around a no-op call. *)
let overhead t p =
  let noop = tracer ~run:0 in
  per_call ~n:2000 (fun () -> span noop "noop" ignore)
  *. float_of_int (List.length (spans_in t p))

(* --- scratch directory ------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* State and journal files live in a fresh directory under the working
   directory (the benchmark reads and writes nothing outside it), which
   is removed however [f] ends. *)
let with_scratch_dir f =
  let dir = Filename.temp_dir ~temp_dir:(Sys.getcwd ()) ".perfbench-" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_file src dst = write_file dst (read_file src)

(* --- failure accounting ------------------------------------------ *)

(* Output checks never abort a run: each failed check is reported on
   stderr and counted, and any failure makes the result incorrect. *)
type checks = { mutable failed : int }

let checks () = { failed = 0 }

let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        c.failed <- c.failed + 1;
        prerr_endline ("check failed: " ^ msg)
      end)
    fmt

(* --- result line -------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* A readable table, then the one-line JSON result as the last line of
   standard output. *)
let print_result ~workload ~correct ~attempted ~failed ~notes metrics =
  Printf.printf "workload %s: correct=%b attempted=%d failed=%d\n" workload
    correct attempted failed;
  List.iter (fun n -> Printf.printf "  %s\n" n) notes;
  List.iter
    (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.name x.value x.unit_)
    metrics;
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (json_float x.value) x.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
