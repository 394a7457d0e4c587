(* The two `cloudless apply` workloads.

   apply_fleet: a cold apply of a 20,000-resource configuration (8
   independent stacks) from empty state.  Parse, eval, executor,
   simulator and the WAL journal do the work; state load and cloud
   restore are idle.

   apply_edit: the same configuration re-applied over its own state
   after a seeded edit of 20 instance groups (120 instances, about 1%
   of the groups).  State load, cloud restore and the plan diff against
   a full state dominate; the executor does only the updates.

   The measured call is [Cli.apply] with default flags — what
   `cloudless apply main.tf --state s.cls` runs.  The traced run makes
   the same public calls [Cli.apply] makes, in the same order, with a
   span around each, and must write the same state file. *)

module Cli = Cloudless.Cli
module Session = Cloudless.Session
module Plan = Cloudless_plan.Plan
module Executor = Cloudless_deploy.Executor
module Journal = Cloudless_state.Journal
module Cloud = Cloudless_sim.Cloud
module Activity_log = Cloudless_sim.Activity_log
module Metrics = Cloudless_obs.Metrics

type kind = Fleet | Edit

let resources = 20_000
let stacks = 8
let edited_groups = 20

type input = {
  kind : kind;
  seed : int;
  dir : string;
  file : string;  (** the configuration applied *)
  state_path : string;
  pre_state : string option;  (** apply_edit: the state it starts from *)
  expected : (string, string * string option) Hashtbl.t;
  edited_addrs : (string, unit) Hashtbl.t;
  changes : int;  (** changes the plan must contain *)
}

(* Run [f] in a forked child, so set-up work leaves no trace in the
   measuring process's heap (its high-water mark is a metric). *)
let in_child f =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | true -> 0
        | false -> 1
        | exception e ->
            prerr_endline (Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> true
      | _ -> false)

let quiet_io buf =
  { Cli.out = Buffer.add_string buf; err = Buffer.add_string buf }

let cli_apply ~seed ~file ~state_path =
  let buf = Buffer.create (1 lsl 20) in
  let code = Cli.apply ~io:(quiet_io buf) ~seed ~file ~state_path () in
  (code, Buffer.contents buf)

(* One set-up: the configuration file, and for apply_edit the
   pre-state, made by a cold apply of the unedited configuration in a
   child process.  Set-up [i] writes pre<i>.cls. *)
let one_setup c ~kind ~seed ~dir ~i =
  let base = Gen.make ~seed ~stacks ~resources in
  let file = Filename.concat dir "main.tf" in
  match kind with
  | Fleet ->
      Util.write_file file (Gen.to_hcl base);
      (base, [], None)
  | Edit ->
      let base_file = Filename.concat dir "base.tf" in
      Util.write_file base_file (Gen.to_hcl base);
      let pre = Filename.concat dir (Printf.sprintf "pre%d.cls" i) in
      let ok =
        in_child (fun () ->
            fst (cli_apply ~seed ~file:base_file ~state_path:pre) = 0)
      in
      Util.check c ok "setup: the base apply failed";
      let edited, groups = Gen.edit ~seed base ~n:edited_groups in
      Util.write_file file (Gen.to_hcl edited);
      (edited, groups, Some pre)

let setup c ~kind ~seed ~dir =
  let (fleet, groups, pre_state), dt =
    Util.time (fun () -> one_setup c ~kind ~seed ~dir ~i:0)
  in
  let expected = Gen.expected fleet in
  let edited_addrs = Hashtbl.create 128 in
  List.iter
    (fun (k, g) ->
      for i = 0 to Gen.instances_per_group - 1 do
        Hashtbl.replace edited_addrs
          (Printf.sprintf "aws_instance.f%d_g%d[%d]" k g i)
          ()
      done)
    groups;
  (match pre_state with
  | Some p ->
      let base = Gen.make ~seed ~stacks ~resources in
      Gen.check_rows c ~what:"pre-state" (Gen.expected base)
        (Gen.rows_of_state (Util.read_file p))
  | None -> ());
  let input =
    {
      kind;
      seed;
      dir;
      file = Filename.concat dir "main.tf";
      state_path = Filename.concat dir "state.cls";
      pre_state;
      expected;
      edited_addrs;
      changes =
        (match kind with Fleet -> resources | Edit -> Hashtbl.length edited_addrs);
    }
  in
  (input, dt)

(* Set-up time is sampled across the run, not only before it, so that
   one slow phase of a shared machine does not decide [setup_s]:
   apply_fleet repeats its set-up 4 times per repetition, apply_edit
   (whose set-up is a whole cold apply) once before each of its first 3
   repetitions.  Every set-up must produce the same pre-state. *)
let resample_setup c inp ~rep =
  let again i =
    snd (Util.time (fun () -> one_setup c ~kind:inp.kind ~seed:inp.seed ~dir:inp.dir ~i))
  in
  match inp.kind with
  | Fleet -> List.init 4 (fun _ -> again 0)
  | Edit when rep < 3 ->
      let dt = again (rep + 1) in
      let pre i = Util.read_file (Filename.concat inp.dir (Printf.sprintf "pre%d.cls" i)) in
      Util.check c (pre (rep + 1) = pre 0) "setup: pre-states differ between set-ups";
      [ dt ]
  | Edit -> []

(* Untimed, before every repetition: the state file the apply starts
   from (none, or the pre-state), no journal, a compacted heap. *)
let prepare inp =
  let rm p = if Sys.file_exists p then Sys.remove p in
  rm inp.state_path;
  rm (Session.journal_path inp.state_path);
  Option.iter (fun p -> Util.copy_file p inp.state_path) inp.pre_state;
  Gc.compact ()

type summary = { applied : int; makespan_text : string; api_calls : int }

let summary_of out =
  let line =
    List.find_opt
      (fun l -> String.length l > 8 && String.sub l 0 8 = "Applied ")
      (String.split_on_char '\n' out)
  in
  Option.bind line (fun l ->
      try
        Scanf.sscanf l "Applied %d change(s) in %s simulated seconds (%d API"
          (fun applied makespan_text api_calls ->
            Some { applied; makespan_text; api_calls })
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

(* --- the decomposed apply ---------------------------------------- *)

type decomposed = {
  report : Executor.report;
  plan : Plan.t;
  cloud : Cloud.t;
  instances : int;
}

let engine = Cli.engine_config Cli.Cloudless

(* The calls [Cli.apply] makes for a single-domain, non-resume apply,
   in its order, each in a span.  Like [Cli.apply], nothing holds the
   recorded state or the instance list past its last use, so the
   garbage collector sees the same live heap. *)
let decomposed t inp =
  let out = Buffer.create (1 lsl 20) in
  Util.span t "apply" @@ fun () ->
  let recorded = Util.span t "state.load" (fun () -> Session.load_state inp.state_path) in
  let cloud, state =
    Util.span t "sim.restore" (fun () -> Session.cloud_from_state recorded ~seed:inp.seed)
  in
  let cfg = Util.span t "hcl.parse" (fun () -> Session.parse_config inp.file) in
  let instances = Util.span t "hcl.eval" (fun () -> Session.expand state cfg) in
  let n_instances = List.length instances in
  let plan = Util.span t "plan.make" (fun () -> Plan.make ~state instances) in
  Util.span t "plan.render" (fun () -> Buffer.add_string out (Plan.to_string plan));
  let report, journal =
    Util.span t "deploy" (fun () ->
        let journal =
          Journal.create ~path:(Session.journal_path inp.state_path) ~mode:Journal.Wal ()
        in
        (Executor.apply cloud ~config:engine ~state ~plan ~journal (), journal))
  in
  Util.span t "state.save" (fun () ->
      Session.save_state inp.state_path report.Executor.state);
  Util.span t "journal.close" (fun () ->
      Journal.close journal;
      Session.clear_journal inp.state_path);
  { report; plan; cloud; instances = n_instances }

(* Simulated time from the executor's start (after its refresh, the
   origin of the makespan the CLI prints) to each engine write's
   completion, from the cloud's activity log. *)
let change_latencies d =
  List.filter_map
    (fun (e : Activity_log.entry) ->
      match (e.Activity_log.actor, e.Activity_log.op) with
      | ( Activity_log.Iac_engine _,
          (Activity_log.Log_create | Activity_log.Log_update | Activity_log.Log_delete) ) ->
          Some (e.Activity_log.time -. d.report.Executor.started_at)
      | _ -> None)
    (Activity_log.all (Cloud.log d.cloud))

(* --- runs ---------------------------------------------------------- *)

let check_output c inp ~what =
  let rows = Gen.rows_of_state (Util.read_file inp.state_path) in
  Gen.check_rows c ~what inp.expected rows;
  match inp.pre_state with
  | Some p ->
      Gen.check_edit c
        ~pre:(Gen.rows_of_state (Util.read_file p))
        ~post:rows ~edited_addrs:inp.edited_addrs
  | None -> ()

(* Returns the summary the CLI printed, and how many of the expected
   changes it did not apply. *)
let check_cli c inp (code, out) =
  Util.check c (code = 0) "cli apply exited %d" code;
  match summary_of out with
  | None ->
      Util.check c false "cli apply printed no summary";
      (None, inp.changes)
  | Some s ->
      Util.check c (s.applied = inp.changes) "cli applied %d changes, expected %d"
        s.applied inp.changes;
      (Some s, max 0 (inp.changes - s.applied))

let name = function Fleet -> "apply_fleet" | Edit -> "apply_edit"

(* End-to-end: warm-up, then timed [Cli.apply] repetitions for
   [seconds]; then one untimed decomposed apply that must write the
   same state file and gives the exact simulated figures. *)
let run_e2e ~kind ~seed ~seconds =
  let c = Util.checks () in
  Util.with_scratch_dir @@ fun dir ->
  let inp, setup0 = setup c ~kind ~seed ~dir in
  let setup_samples = ref [ setup0 ] in
  prepare inp;
  ignore (check_cli c inp (cli_apply ~seed ~file:inp.file ~state_path:inp.state_path)
          : summary option * int);
  (* the high-water mark after one apply in a fresh process: later
     repetitions repeat the same allocations, so it is fixed per seed *)
  let peak = Util.peak_heap_mb () in
  let walls = ref [] and digests = ref [] and summary = ref None in
  let unapplied = ref 0 in
  let t_end = Util.now () +. seconds in
  while Util.now () < t_end || List.length !walls < 3 do
    setup_samples := resample_setup c inp ~rep:(List.length !walls) @ !setup_samples;
    prepare inp;
    let r, dt =
      Util.time (fun () -> cli_apply ~seed ~file:inp.file ~state_path:inp.state_path)
    in
    walls := dt :: !walls;
    let s, missing = check_cli c inp r in
    summary := s;
    unapplied := !unapplied + missing;
    digests := Digest.file inp.state_path :: !digests
  done;
  Util.check c
    (List.for_all (fun d -> d = List.hd !digests) !digests)
    "state files differ between repetitions";
  check_output c inp ~what:"cli state";
  let cli_state = Util.read_file inp.state_path in
  prepare inp;
  let d = decomposed (Util.tracer ~run:0) inp in
  Util.check c
    (Util.read_file inp.state_path = cli_state)
    "decomposed apply wrote a different state file than cli apply";
  let lat = change_latencies d in
  Util.check c (List.length lat = inp.changes) "%d engine writes logged, expected %d"
    (List.length lat) inp.changes;
  let r = d.report in
  (match !summary with
  | Some s ->
      Util.check c
        (Printf.sprintf "%.0f" r.Executor.makespan = s.makespan_text
        && s.api_calls = r.Executor.api_calls)
        "decomposed apply's makespan/api calls differ from cli apply's"
  | None -> ());
  let latencies = Metrics.create () in
  List.iter (Metrics.observe latencies "change_latency") lat;
  let pctl p = Option.get (Metrics.percentile latencies "change_latency" p) in
  let reps = List.length !walls in
  let attempted = reps * inp.changes in
  let failed = !unapplied + c.failed in
  Util.print_result ~workload:(name kind) ~correct:(c.failed = 0) ~attempted
    ~failed
    ~notes:
      [
        Printf.sprintf "wall_s: median of %d repetitions (1 warm-up discarded)" reps;
        Printf.sprintf "setup_s: median of %d set-ups" (List.length !setup_samples);
        Printf.sprintf "sim latencies: %d change completions" (List.length lat);
        Printf.sprintf "error_rate: %g" (float_of_int failed /. float_of_int attempted);
      ]
    [
      Util.m "setup_s" "s" (Util.median !setup_samples);
      Util.m "wall_s" "s" (Util.median !walls);
      Util.m "peak_heap_mb" "MB" peak;
      Util.m "sim_makespan_s" "s" r.Executor.makespan;
      Util.m "sim_p50_s" "s" (pctl 50.);
      Util.m "sim_p99_s" "s" (pctl 99.);
      Util.m "api_calls" "count" (float_of_int r.Executor.api_calls);
    ];
  c.failed = 0

(* --- traced run ------------------------------------------------------ *)

(* One traced repetition: an untraced [Cli.apply] (the reference the
   decomposed apply must reproduce byte for byte), the decomposed apply
   under spans, then two calls timed alone: the executor without a
   journal on a cloud restored again from the pre-state (its difference
   to the journaled [deploy] span is the journal's cost), and the
   execution-graph build + Kahn rounds.  Returns the layer metrics and
   the traced/untraced wall ratio. *)
let traced_rep c t inp =
  prepare inp;
  let cli, wall =
    Util.time (fun () -> cli_apply ~seed:inp.seed ~file:inp.file ~state_path:inp.state_path)
  in
  ignore (check_cli c inp cli : summary option * int);
  let cli_state = Util.read_file inp.state_path in
  prepare inp;
  let d = decomposed t inp in
  let state_text = Util.read_file inp.state_path in
  Util.check c (state_text = cli_state)
    "decomposed apply wrote a different state file than cli apply";
  let recorded =
    match inp.pre_state with
    | Some p -> Session.load_state p
    | None -> Cloudless_state.State.empty
  in
  let cloud, state = Session.cloud_from_state recorded ~seed:inp.seed in
  Gc.compact ();
  let bare =
    Util.span t "deploy.execute" (fun () ->
        Executor.apply cloud ~config:engine ~state ~plan:d.plan ())
  in
  Util.check c
    (bare.Executor.makespan = d.report.Executor.makespan
    && List.length bare.Executor.applied = List.length d.report.Executor.applied)
    "the executor without a journal ran a different schedule";
  Gc.compact ();
  ignore
    (Util.span t "graph.rounds" (fun () -> Plan.exec_rounds (Plan.exec_graph d.plan))
      : int list list);
  let get = Util.find_span t in
  let dur n = Util.duration (get n) in
  let mwords n = Util.span_words (get n) /. 1e6 in
  let root = get "apply" in
  let r = d.report in
  let changes = float_of_int (List.length r.Executor.applied) in
  let sum = Plan.summarize d.plan in
  let wal = dur "deploy" -. dur "deploy.execute" +. dur "journal.close" in
  let count n = float_of_int n in
  ( [
      ("hcl.parse_s", dur "hcl.parse");
      ("hcl.parse_mwords", mwords "hcl.parse");
      ("hcl.eval_s", dur "hcl.eval");
      ("hcl.instances", count d.instances);
      ("state.load_s", dur "state.load");
      ("state.load_mwords", mwords "state.load");
      ("sim.restore_s", dur "sim.restore");
      ("plan.make_s", dur "plan.make");
      ("plan.creates", count sum.Plan.to_create);
      ("plan.updates", count (sum.Plan.to_update + sum.Plan.to_replace));
      ("plan.deletes", count sum.Plan.to_delete);
      ("plan.render_s", dur "plan.render");
      ("deploy.execute_s", dur "deploy.execute");
      ("deploy.words_per_change", Util.span_words (get "deploy.execute") /. changes);
      ("deploy.sched_picks", count r.Executor.sched_picks);
      ("deploy.retries", count r.Executor.retries);
      ("deploy.peak_ready", count r.Executor.peak_ready);
      ("graph.rounds_s", dur "graph.rounds");
      ("journal.wal_s", wal);
      ("journal.us_per_change", wal /. changes *. 1e6);
      ("state.save_s", dur "state.save");
      ("state.bytes", count (String.length state_text));
      ("sim.api_reads", count r.Executor.refresh_reads);
      ("sim.api_writes", count (r.Executor.api_calls - r.Executor.refresh_reads));
      ("sim.throttled", count r.Executor.throttled);
      ("trace.coverage", Util.children_time t root /. Util.duration root);
      ("trace.overhead_s", Util.overhead t root);
    ],
    Util.duration root /. wall )

let run_traced ~kind ~seed ~seconds ~spans_out =
  let c = Util.checks () in
  Util.with_scratch_dir @@ fun dir ->
  let inp, _ = setup c ~kind ~seed ~dir in
  prepare inp;
  ignore
    (check_cli c inp (cli_apply ~seed ~file:inp.file ~state_path:inp.state_path)
      : summary option * int);
  let tracers = ref [] and reps = ref [] in
  let t_end = Util.now () +. seconds in
  while Util.now () < t_end || List.length !reps < 2 do
    let t = Util.tracer ~run:(List.length !reps + 1) in
    tracers := t :: !tracers;
    reps := traced_rep c t inp :: !reps
  done;
  check_output c inp ~what:"cli state";
  Util.write_spans spans_out (List.rev !tracers);
  let n = List.length !reps in
  Util.print_result ~workload:(name kind) ~correct:(c.failed = 0)
    ~attempted:(n * inp.changes) ~failed:c.failed
    ~notes:
      [
        Printf.sprintf "medians of %d traced repetitions; spans in %s" n spans_out;
        Util.ratio_note (List.map snd !reps);
      ]
    (Layers.collect (List.map fst !reps));
  c.failed = 0
