(* The per-layer metrics a traced run reports, in output order: name,
   unit, and which direction is better.  Every workload reports every
   name; a layer that is not on a workload's path reads 0 there.
   BENCHMARK.json's [per_layer] list must match this one. *)

let all =
  [
    ("hcl.parse_s", "s", "lower");
    ("hcl.parse_mwords", "Mword", "lower");
    ("hcl.eval_s", "s", "lower");
    ("hcl.instances", "count", "lower");
    ("state.load_s", "s", "lower");
    ("state.load_mwords", "Mword", "lower");
    ("sim.restore_s", "s", "lower");
    ("plan.make_s", "s", "lower");
    ("plan.creates", "count", "lower");
    ("plan.updates", "count", "lower");
    ("plan.deletes", "count", "lower");
    ("plan.render_s", "s", "lower");
    ("deploy.execute_s", "s", "lower");
    ("deploy.words_per_change", "word", "lower");
    ("deploy.sched_picks", "count", "lower");
    ("deploy.retries", "count", "lower");
    ("deploy.peak_ready", "count", "higher");
    ("graph.rounds_s", "s", "lower");
    ("journal.wal_s", "s", "lower");
    ("journal.us_per_change", "us", "lower");
    ("state.save_s", "s", "lower");
    ("state.bytes", "B", "lower");
    ("sim.api_reads", "count", "lower");
    ("sim.api_writes", "count", "lower");
    ("sim.throttled", "count", "lower");
    ("controlplane.run_s", "s", "lower");
    ("controlplane.us_per_request", "us", "lower");
    ("controlplane.words_per_request", "word", "lower");
    ("controlplane.queue_wait_p99_s", "s", "lower");
    ("router.cross_shard_routed", "count", "lower");
    ("router.moves", "count", "lower");
    ("router.assign_ns", "ns", "lower");
    ("lock.waits", "count", "lower");
    ("lock.grants", "count", "lower");
    ("drift.log_deliveries", "count", "lower");
    ("drift.reconciles", "count", "lower");
    ("drift.reconcile_p90_s", "s", "lower");
    ("policy.ticks", "count", "lower");
    ("policy.decisions", "count", "lower");
    ("hcl.expand_us_per_request", "us", "lower");
    ("plan.make_us_per_request", "us", "lower");
    ("metrics.snapshot_s", "s", "lower");
    ("metrics.snapshot_bytes", "B", "lower");
    ("trace.coverage", "share", "higher");
    ("trace.overhead_s", "s", "lower");
    ("controlplane.unattributed_share", "share", "lower");
  ]

(* Per-repetition measurements -> one metric list: the median of each
   name over the repetitions, 0 for names the workload does not
   measure.  An unknown name is a programming error. *)
let collect (reps : (string * float) list list) =
  List.iter
    (fun rep ->
      List.iter
        (fun (n, _) ->
          if not (List.exists (fun (m, _, _) -> m = n) all) then
            invalid_arg ("Layers.collect: unknown metric " ^ n))
        rep)
    reps;
  List.map
    (fun (name, unit_, _) ->
      let values = List.filter_map (List.assoc_opt name) reps in
      Util.m name unit_ (if values = [] then 0. else Util.median values))
    all
