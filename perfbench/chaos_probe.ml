(* The chaos layer's per-layer probe: three fixed fault schedules of
   each chaos scenario (indices 1 to 3 of [Chaos.gen] for the run's
   seed), each run on one domain through [Chaos.run_one] with every
   oracle checked.  It reports host ms per run of each scenario at
   nominal speed, faults injected and history ops per run, and oracle
   violations. *)

open Harness
module Chaos = Chorus_chaos.Chaos

let scenarios =
  Chaos.[ (Disk, "disk"); (Projfs, "projfs"); (Kv, "kv");
          (Kv_lease, "kv_lease"); (Gray, "gray") ]

let runs_per_scenario = 3

let run ~seed =
  let faults = ref 0 and history_ops = ref 0 and violations = ref 0 in
  let host_ms =
    List.map
      (fun (sc, name) ->
        let t0 = Unix.gettimeofday () in
        for index = 1 to runs_per_scenario do
          let o = Chaos.run_one sc (Chaos.gen sc ~seed ~index) in
          faults := !faults + o.Chaos.injected;
          history_ops := !history_ops + o.Chaos.ops;
          violations := !violations + List.length o.Chaos.violations
        done;
        let ms = 1000.0 *. scale (Unix.gettimeofday () -. t0) in
        ( Printf.sprintf "chaos.%s.host_ms_per_run" name,
          ms /. float_of_int runs_per_scenario ))
      scenarios
  in
  let runs = runs_per_scenario * List.length scenarios in
  let errors =
    if !violations = 0 then []
    else [ Printf.sprintf "chaos probe: %d oracle violations" !violations ]
  in
  ( host_ms
    @ [ ("chaos.faults_per_run", per !faults runs);
        ("chaos.history_ops_per_run", per !history_ops runs);
        ("chaos.violations", float_of_int !violations) ],
    errors )
