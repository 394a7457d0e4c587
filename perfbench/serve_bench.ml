(* serve_fleet: the multi-tenant control plane under an open-loop load.

   2048 tenants x 1 deployment x 8 resources on 4 shards.  Every tenant
   submits 4 revision waves 600 simulated seconds apart, whether or not
   its earlier work has finished; then 128 seeded out-of-band drift
   injections fire, and policy ticks run every 300 s.  Rate limits are
   E15's (far above the offered load), so latency reflects the control
   plane rather than throttle backlog.  Router, shard loop, applier,
   lock manager, drift routing, policy and metrics do the work; the
   apply workloads touch none of them.

   The service is built from a [Scenario.t] record through
   [Fleet.create] -> [Scenario.install_fleet] -> [Fleet.run] ->
   [Metrics.to_json]; neither the scenario text grammar nor the
   [Control_plane] facade is used.  Drift injections are scheduled here
   (the scenario's own are deterministic in the tenant index), so the
   seed picks their targets. *)

module Fleet = Cloudless_controlplane.Fleet
module Shard = Cloudless_controlplane.Shard
module Scenario = Cloudless_controlplane.Scenario
module Router = Cloudless_controlplane.Router
module Metrics = Cloudless_obs.Metrics
module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module Cloud_rules = Cloudless_schema.Cloud_rules
module State = Cloudless_state.State
module Plan = Cloudless_plan.Plan
module Value = Cloudless_hcl.Value

let tenants = 2048
let shards = 4
let revisions = 4
let drift_events = 128

let scenario ~shards =
  {
    Scenario.default with
    Scenario.tenants;
    shards;
    deployments_per_tenant = 1;
    resources = 8;
    requests_per_tenant = revisions;
    request_interval = 600.;
    drift_events = 0;
    drift_period = 60.;
    policy_period = 300.;
    duration = 3600.;
  }

type injection = {
  tenant : string;
  at : float;
  row : int;  (** which of the tenant's instances *)
  delete : bool;  (** delete out of band, or mutate instance_type *)
  mutable fired : (string * float) option;  (** cloud id, time *)
}

(* 128 distinct tenants, spread evenly over the window after the
   revision waves (the window [Scenario.install_fleet] uses). *)
let plan_injections ~seed (scn : Scenario.t) =
  let rng = Random.State.make [| seed; 0xd21f7 |] in
  let base =
    (float_of_int (scn.Scenario.requests_per_tenant - 1)
    *. scn.Scenario.request_interval)
    +. (2. *. scn.Scenario.drift_period)
  in
  let window =
    scn.Scenario.duration -. base -. (3. *. scn.Scenario.drift_period)
  in
  let gap = window /. float_of_int drift_events in
  let chosen = Hashtbl.create drift_events in
  let rec pick () =
    let t = Random.State.int rng scn.Scenario.tenants in
    if Hashtbl.mem chosen t then pick () else (Hashtbl.replace chosen t (); t)
  in
  List.init drift_events (fun i ->
      let t = pick () in
      {
        tenant = Printf.sprintf "tenant%d" t;
        at = base +. (float_of_int i *. gap);
        row = Random.State.int rng 4;
        delete = Random.State.int rng 4 = 0;
        fired = None;
      })

let schedule_injections cloud fleet injs =
  List.iter
    (fun inj ->
      Cloud.schedule cloud ~delay:inj.at (fun () ->
          match Fleet.find_deployment !fleet ~tenant:inj.tenant ~dname:"d0" with
          | None -> ()
          | Some dep -> (
              let instances =
                List.filter
                  (fun (r : State.resource_state) -> r.State.rtype = "aws_instance")
                  (State.resources dep.Shard.state)
              in
              match instances with
              | [] -> ()
              | _ ->
                  let cid =
                    (List.nth instances (inj.row mod List.length instances))
                      .State.cloud_id
                  in
                  let r =
                    if inj.delete then Cloud.delete_oob cloud ~script:"ops" ~cloud_id:cid
                    else
                      Cloud.mutate_oob cloud ~script:"ops" ~cloud_id:cid
                        ~attr:"instance_type" ~value:(Value.Vstring "t2.nano")
                  in
                  if Result.is_ok r then inj.fired <- Some (cid, Cloud.now cloud))))
    injs

type run = {
  scn : Scenario.t;
  fleet : Fleet.t ref;
  injs : injection list;
}

(* The service's set-up: fleet, deployments, scheduled load. *)
let build ~seed ~shards =
  let scn = scenario ~shards in
  let cloud =
    Cloud.create
      ~config:(Cloud_rules.config_with_checks ())
      ~write_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
      ~read_limiter:(Rate_limiter.create ~capacity:1e7 ~refill_rate:1e6)
      ~seed ()
  in
  let config = Scenario.service_config scn Shard.fleet_service in
  let fleet = ref (Fleet.create ~cloud ~shards config) in
  ignore (Scenario.install_fleet scn fleet : Scenario.injection list ref);
  let injs = plan_injections ~seed scn in
  schedule_injections cloud fleet injs;
  { scn; fleet; injs }

let serve r =
  Fleet.run !(r.fleet) ~until:r.scn.Scenario.duration;
  Metrics.to_json (Fleet.metrics !(r.fleet))

let metrics r = Fleet.metrics !(r.fleet)
let expected_requests = tenants * revisions
let done_requests r = Metrics.counter (metrics r) "requests_done"

let pctl r name p =
  Option.value ~default:0. (Metrics.percentile (metrics r) name p)

(* Output checks, against what the benchmark submitted and injected. *)
let check_run c r =
  let fleet = !(r.fleet) in
  let m = metrics r in
  Util.check c (done_requests r = expected_requests) "%d/%d requests done"
    (done_requests r) expected_requests;
  Util.check c
    (Metrics.counter m "requests_rejected" = 0 && Metrics.counter m "work_failures" = 0)
    "rejected or failed work";
  Util.check c (Fleet.orphans fleet = []) "%d orphaned resources"
    (List.length (Fleet.orphans fleet));
  let detections = Fleet.drift_detections fleet in
  let unreconciled =
    List.filter
      (fun inj ->
        match inj.fired with
        | None -> true
        | Some (cid, at) ->
            not (List.exists (fun (id, t) -> id = cid && t >= at -. 1e-9) detections))
      r.injs
  in
  Util.check c (unreconciled = []) "%d injections never fired or detected"
    (List.length unreconciled);
  Util.check c
    (Metrics.counter m "reconciles" >= drift_events)
    "%d reconciles for %d injections" (Metrics.counter m "reconciles") drift_events;
  (* converged: every managed row is live, with its recorded type *)
  let cloud = Fleet.cloud fleet in
  let stale = ref 0 in
  List.iter
    (fun (dep : Shard.deployment) ->
      List.iter
        (fun (row : State.resource_state) ->
          match Cloud.lookup cloud row.State.cloud_id with
          | None -> incr stale
          | Some live ->
              let ty attrs = Value.Smap.find_opt "instance_type" attrs in
              if ty live.Cloud.attrs <> ty row.State.attrs then incr stale)
        (State.resources dep.Shard.state))
    (Fleet.deployments fleet);
  Util.check c (!stale = 0) "%d managed rows not converged in the cloud" !stale;
  List.length unreconciled

let makespan r =
  List.fold_left (fun acc (_, _, at) -> Float.max acc at) 0.
    (Fleet.completed_requests !(r.fleet))

(* The shard count must not change the converged state. *)
let check_shard_invariance c ~seed r =
  let one = build ~seed ~shards:1 in
  ignore (serve one : string);
  Util.check c
    (Fleet.state_digest !(one.fleet) = Fleet.state_digest !(r.fleet))
    "state digest differs between 1 and %d shards" shards

let run_e2e ~seed ~seconds =
  let c = Util.checks () in
  let r0, setup0 = Util.time (fun () -> build ~seed ~shards) in
  Gc.compact ();
  let first_snap = serve r0 in
  (* the high-water mark after one run in a fresh process: later
     repetitions repeat the same allocations, so it is fixed per seed *)
  let peak = Util.peak_heap_mb () in
  let setup_samples = ref [ setup0 ] in
  let walls = ref [] and last = ref None and same = ref true in
  let t_end = Util.now () +. seconds in
  while Util.now () < t_end || List.length !walls < 3 do
    (* drop the previous run first: it must not inflate the heap *)
    last := None;
    (* set-up is sampled 3 times per repetition, across the run; only
       the last fleet built is kept *)
    let built = ref None in
    for _ = 1 to 3 do
      built := None;
      let b, dt = Util.time (fun () -> build ~seed ~shards) in
      setup_samples := dt :: !setup_samples;
      built := Some b
    done;
    let r = Option.get !built in
    Gc.compact ();
    let snap, wall = Util.time (fun () -> serve r) in
    walls := wall :: !walls;
    same := !same && snap = first_snap;
    last := Some r
  done;
  let r = Option.get !last in
  Util.check c !same "metrics snapshots differ between runs of one seed";
  let unreconciled = check_run c r in
  check_shard_invariance c ~seed r;
  let n = List.length !walls in
  let attempted = n * (expected_requests + drift_events) in
  let failed = (n * (expected_requests - done_requests r + unreconciled)) + c.failed in
  Util.print_result ~workload:"serve_fleet" ~correct:(c.failed = 0) ~attempted ~failed
    ~notes:
      [
        Printf.sprintf "wall_s: median of %d repetitions (1 warm-up discarded)" n;
        Printf.sprintf "setup_s: median of %d set-ups" (List.length !setup_samples);
        Printf.sprintf "sim latencies: %d requests"
          (Metrics.histogram_count (metrics r) "request_latency");
        Printf.sprintf "error_rate: %g" (float_of_int failed /. float_of_int attempted);
      ]
    [
      Util.m "setup_s" "s" (Util.median !setup_samples);
      Util.m "wall_s" "s" (Util.median !walls);
      Util.m "peak_heap_mb" "MB" peak;
      Util.m "sim_makespan_s" "s" (makespan r);
      Util.m "sim_p50_s" "s" (pctl r "request_latency" 50.);
      Util.m "sim_p99_s" "s" (pctl r "request_latency" 99.);
      Util.m "api_calls" "count" (float_of_int (Metrics.counter (metrics r) "api_calls"));
    ];
  c.failed = 0

(* --- traced run ------------------------------------------------------ *)

(* [Fleet.run] is one call; the benchmark cannot split it from outside.
   Its time is attributed by timing single calls of the per-request
   work alone (expanding and planning one tenant revision, one router
   lookup) and multiplying by the call counts the metrics registry
   recorded; what remains is reported as unattributed.  Returns the
   layer metrics and the traced/untraced wall ratio. *)
let traced_rep c t ~seed =
  let r = build ~seed ~shards in
  Gc.compact ();
  let snap, wall = Util.time (fun () -> serve r) in
  let rt = Util.span t "controlplane.setup" (fun () -> build ~seed ~shards) in
  Gc.compact ();
  let traced_snap =
    Util.span t "serve" (fun () ->
        Util.span t "controlplane.run" (fun () ->
            Fleet.run !(rt.fleet) ~until:rt.scn.Scenario.duration);
        Util.span t "metrics.snapshot" (fun () -> Metrics.to_json (metrics rt)))
  in
  Util.check c (traced_snap = snap) "the traced run's metrics snapshot differs";
  let fleet = !(rt.fleet) in
  let dep = Option.get (Fleet.find_deployment fleet ~tenant:"tenant0" ~dname:"d0") in
  let state = dep.Shard.state and src = Scenario.fleet_src rt.scn ~wave:1 in
  let expand = Util.per_call ~n:200 (fun () -> Shard.expand ~state src) in
  let instances = Shard.expand ~state src in
  let plan = Util.per_call ~n:200 (fun () -> Plan.make ~state instances) in
  let router = Fleet.router fleet in
  let names = Array.init tenants (Printf.sprintf "tenant%d") in
  let assign =
    Util.per_call ~n:10 (fun () -> Array.iter (fun t -> ignore (Router.assign router t)) names)
    /. float_of_int tenants
  in
  let get = Util.find_span t in
  let dur n = Util.duration (get n) in
  let root = get "serve" in
  let m = metrics rt in
  let cnt n = float_of_int (Metrics.counter m n) in
  (* per-shard gauges: the bare name holds only the last shard's write *)
  let gauge n =
    List.fold_left
      (fun acc i ->
        acc
        +. Option.value ~default:0.
             (Metrics.gauge m (Printf.sprintf "%s.shard%d" n i)))
      0. (List.init shards Fun.id)
  in
  let requests = cnt "requests_done" in
  let calls = requests +. cnt "reconciles" in
  let run_s = dur "controlplane.run" in
  let attributed = ((expand +. plan) *. calls) +. (assign *. requests) in
  ( [
      ("controlplane.run_s", run_s);
      ("controlplane.us_per_request", run_s /. requests *. 1e6);
      ("controlplane.words_per_request", Util.span_words (get "controlplane.run") /. requests);
      ("controlplane.queue_wait_p99_s", pctl rt "request_queue_wait" 99.);
      ("router.cross_shard_routed", cnt "cross_shard_routed");
      ("router.moves", cnt "rebalance_moves");
      ("router.assign_ns", assign *. 1e9);
      ("lock.waits", gauge "lock_waits");
      ("lock.grants", gauge "lock_grants");
      ("drift.log_deliveries", Option.value ~default:0. (Metrics.gauge m "log_deliveries"));
      ("drift.reconciles", cnt "reconciles");
      ("drift.reconcile_p90_s", pctl rt "reconcile_latency" 90.);
      ("policy.ticks", cnt "policy_ticks");
      ("policy.decisions", cnt "policy_decisions");
      ("hcl.expand_us_per_request", expand *. 1e6);
      ("plan.make_us_per_request", plan *. 1e6);
      ("metrics.snapshot_s", dur "metrics.snapshot");
      ("metrics.snapshot_bytes", float_of_int (String.length snap));
      ("sim.api_reads", cnt "api_reads");
      ("sim.api_writes", cnt "api_writes");
      ("trace.coverage", Util.children_time t root /. Util.duration root);
      ("trace.overhead_s", Util.overhead t root);
      ("controlplane.unattributed_share", 1. -. (attributed /. run_s));
    ],
    Util.duration root /. wall )

let run_traced ~seed ~seconds ~spans_out =
  let c = Util.checks () in
  ignore (serve (build ~seed ~shards) : string);
  let tracers = ref [] and reps = ref [] in
  let t_end = Util.now () +. seconds in
  while Util.now () < t_end || List.length !reps < 2 do
    let t = Util.tracer ~run:(List.length !reps + 1) in
    tracers := t :: !tracers;
    reps := traced_rep c t ~seed :: !reps
  done;
  Util.write_spans spans_out (List.rev !tracers);
  let n = List.length !reps in
  Util.print_result ~workload:"serve_fleet" ~correct:(c.failed = 0)
    ~attempted:(n * (expected_requests + drift_events)) ~failed:c.failed
    ~notes:
      [
        Printf.sprintf "medians of %d traced repetitions; spans in %s" n spans_out;
        Util.ratio_note (List.map snd !reps);
      ]
    (Layers.collect (List.map fst !reps));
  c.failed = 0
