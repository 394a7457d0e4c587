(* Compiled config revisions on the serve path: [Shard.expand] parses
   and prepares each distinct source once and evaluates it against each
   caller's state.  These tests pin that the shared revision changes
   nothing observable — same instances as a fresh parse and expand,
   same first error, every bad revision still fails every request —
   that the table stays bounded, and that a request allocates what
   evaluation needs, not a re-parse. *)

open Cloudless_hcl
module Cloud = Cloudless_sim.Cloud
module Rate_limiter = Cloudless_sim.Rate_limiter
module State = Cloudless_state.State
module Shard = Cloudless_controlplane.Shard
module Fleet = Cloudless_controlplane.Fleet
module Scenario = Cloudless_controlplane.Scenario
module Metrics = Cloudless_obs.Metrics
module Cloud_rules = Cloudless_schema.Cloud_rules
module Workload = Cloudless_workload.Workload
module Smap = Value.Smap

let check = Alcotest.check
let int_ = Alcotest.int
let bool_ = Alcotest.bool
let string_ = Alcotest.string

let fresh_cloud () =
  Cloud.create
    ~config:(Cloud_rules.config_with_checks ())
    ~write_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~read_limiter:(Rate_limiter.create ~capacity:1e6 ~refill_rate:1e5)
    ~seed:42 ()

let one_shard () =
  Fleet.create ~cloud:(fresh_cloud ()) ~shards:1 Shard.cloudless_service

let types = [| "t3.small"; "t3.medium"; "t3.large"; "t3.xlarge" |]

(* One fleet revision: [resources] rows, a group of [per_group]
   instances, instance type [ty]. *)
let revision (resources, per_group, ty) =
  Workload.fleet ~instances_per_group:per_group
    ~instance_type:types.(ty mod Array.length types)
    ~resources ()

(* A prior state holding the rows of [instances] whose index is picked
   by [keep], each with a cloud id and a computed [id]: references to
   those rows resolve through [state_lookup] instead of staying
   unknown. *)
let state_of instances keep =
  List.fold_left
    (fun (st, i) (inst : Eval.instance) ->
      let st =
        if keep i then
          let cid = Printf.sprintf "cid-%d-%s" i (Addr.to_string inst.Eval.addr) in
          State.add st
            {
              State.addr = inst.Eval.addr;
              cloud_id = cid;
              rtype = inst.Eval.addr.Addr.rtype;
              region = "us-east-1";
              attrs = Smap.add "id" (Value.Vstring cid) inst.Eval.attrs;
              deps = [];
            }
        else st
      in
      (st, i + 1))
    (State.empty, 0) instances
  |> fst

(* The reference: a fresh parse and expand, with the state lookup
   [Shard.expand] uses. *)
let reference ~state src =
  let env =
    {
      Eval.default_env with
      Eval.state_lookup = (fun addr -> State.lookup state addr);
    }
  in
  (Eval.expand ~env (Config.parse ~file:"<service>" src)).Eval.instances

let gen_revision =
  QCheck.(triple (int_range 1 40) (int_range 1 6) (int_range 0 3))

(* Two states per revision, expanded in turn: the second call reuses
   the revision the first one compiled, so a result that leaked from
   one state into the next would show. *)
let prop_same_instances =
  QCheck.Test.make ~count:60
    ~name:"Shard.expand = Eval.expand (Config.parse src), any prior state"
    QCheck.(triple gen_revision gen_revision (int_range 1 10_000))
    (fun (rev, prior_rev, seed) ->
      let src = revision rev in
      let prior = reference ~state:State.empty (revision prior_rev) in
      let rng = Random.State.make [| seed |] in
      let states =
        [
          state_of prior (fun _ -> Random.State.bool rng);
          state_of prior (fun _ -> Random.State.int rng 4 = 0);
        ]
      in
      List.for_all
        (fun state -> Shard.expand ~state src = reference ~state src)
        states)

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

let eval_error f =
  match f () with
  | _ -> Alcotest.fail "expected an evaluation error"
  | exception Eval.Eval_error (msg, _) -> msg

let contains = Test_fixtures.contains_substring

(* A bad variable default and a dependency cycle in one config: the
   variable is evaluated first, so its error is the one reported, on
   both paths.  Preparing the config does not raise the cycle early. *)
let test_error_order () =
  let cycle =
    {|
resource "aws_vpc" "a" {
  cidr_block = aws_vpc.b.id
}
resource "aws_vpc" "b" {
  cidr_block = aws_vpc.a.id
}
|}
  in
  let both = {|
variable "x" {
  default = no_such_name
}
|} ^ cycle in
  let first = eval_error (fun () -> Eval.expand (Config.parse ~file:"t" both)) in
  check bool_ "variable error first" true
    (contains ~sub:"undeclared identifier" first);
  check string_ "same error on the serve path" first
    (eval_error (fun () -> Shard.expand ~state:State.empty both));
  ignore (Eval.prepare (Config.parse ~file:"t" both) : Eval.prepared);
  check bool_ "the cycle alone still fails" true
    (contains ~sub:"dependency cycle"
       (eval_error (fun () -> Shard.expand ~state:State.empty cycle)))

(* A revision that does not parse fails each request that carries it —
   a second submission too — and never enters the table. *)
let test_parse_error_fails_every_request () =
  let fleet = one_shard () in
  let good = revision (8, 4, 0) in
  let dep = Fleet.add_deployment fleet ~tenant:"acme" ~dname:"prod" ~src:good in
  let bad = good ^ "\nresource \"aws_vpc\" {\n" in
  let before = Shard.compiled_revisions () in
  let submit src = ignore (Fleet.submit_request fleet dep ~src) in
  submit bad;
  Cloud.schedule (Fleet.cloud fleet) ~delay:100. (fun () -> submit bad);
  Fleet.run fleet ~until:300.;
  let m = Fleet.metrics fleet in
  check int_ "both requests failed" 2 (Metrics.counter m "work_failures");
  check int_ "none done" 0 (Metrics.counter m "requests_done");
  check int_ "table unchanged" before (Shard.compiled_revisions ())

(* ------------------------------------------------------------------ *)
(* Bounded table                                                       *)
(* ------------------------------------------------------------------ *)

let test_table_bounded () =
  let fleet = one_shard () in
  let n = Shard.revision_capacity + 8 in
  let base = revision (6, 2, 0) in
  for i = 0 to n - 1 do
    let src = Printf.sprintf "%s# revision %d\n" base i in
    let dep =
      Fleet.add_deployment fleet ~tenant:"acme" ~dname:(Printf.sprintf "d%d" i)
        ~src
    in
    ignore (Fleet.submit_request fleet dep ~src)
  done;
  Fleet.run fleet ~until:600.;
  check int_ "every request done" n
    (Metrics.counter (Fleet.metrics fleet) "requests_done");
  check bool_ "table at or below capacity" true
    (Shard.compiled_revisions () <= Shard.revision_capacity)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* 64 tenants x 4 revisions on 2 shards, with drift repair.  Measured
   on a 64-bit build: about 8.2k words per completed request; 15.1k
   when every request re-parsed and re-ordered its source. *)
let words_per_request_bound = 11_500.

let test_words_per_request () =
  let scn =
    {
      Scenario.default with
      Scenario.tenants = 64;
      shards = 2;
      resources = 8;
      requests_per_tenant = 4;
      request_interval = 600.;
      drift_events = 8;
      drift_period = 60.;
      policy_period = 300.;
      duration = 3600.;
    }
  in
  let fleet =
    ref
      (Fleet.create ~cloud:(fresh_cloud ()) ~shards:2
         (Scenario.service_config scn Shard.fleet_service))
  in
  ignore (Scenario.install_fleet scn fleet : Scenario.injection list ref);
  let before = Gc.allocated_bytes () in
  Fleet.run !fleet ~until:scn.Scenario.duration;
  let words =
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  let done_ = Metrics.counter (Fleet.metrics !fleet) "requests_done" in
  check int_ "every request done" 256 done_;
  let per_request = words /. float_of_int done_ in
  if per_request > words_per_request_bound then
    Alcotest.failf "%.0f words per request (bound %.0f)" per_request
      words_per_request_bound

let suites =
  [
    ( "controlplane.revisions",
      [
        QCheck_alcotest.to_alcotest prop_same_instances;
        Alcotest.test_case "error order unchanged" `Quick test_error_order;
        Alcotest.test_case "bad revision fails every request" `Quick
          test_parse_error_fails_every_request;
        Alcotest.test_case "table stays bounded" `Quick test_table_bounded;
        Alcotest.test_case "words per request" `Quick test_words_per_request;
      ] );
  ]
