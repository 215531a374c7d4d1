(* E22 — chaos campaign over the service and cluster planes (S1/S5).

   The paper's reliability posture is Erlang's: "aiming for not
   failing" through supervision and restart rather than proving
   components never crash.  This experiment is the posture's audit: a
   campaign driver enumerates deterministic fault schedules — service
   fiber kills at crash points, whole-node crashes, fabric loss /
   duplication / reordering / delay windows, transient disk read
   errors — runs a recorded client workload under each, and checks
   four oracles after every run: per-key linearizability (Wing–Gong
   over the client histories), durability of acked writes, bounded
   recovery after the last fault clears, and quiescence (no leaked
   fibers, no stuck inboxes).

   Because every run is a pure function of its schedule, a failing
   schedule IS the reproducer: it replays byte-identically and shrinks
   greedily to a minimal fault set.  The selftest row plants a
   corrupted history and confirms the oracles actually fire — a
   checker that passes everything is the quietest way to be wrong. *)

open Exp_common
module Chaos = Chorus_chaos.Chaos
module Schedule = Chorus_chaos.Schedule

let run ~quick ~seed =
  let disk_runs = pick ~quick 24 160 in
  let kv_runs = pick ~quick 8 48 in
  let r = Chaos.campaign ~runs:[ (Chaos.Disk, disk_runs); (Chaos.Kv, kv_runs) ] ~seed () in
  let t = Tablefmt.create ~title:"chaos campaign" ~columns:[ ("metric", Tablefmt.Left); ("value", Tablefmt.Right) ] in
  Tablefmt.add_row t [ "runs"; string_of_int r.Chaos.runs ];
  Tablefmt.add_row t [ "client ops recorded"; string_of_int r.Chaos.total_ops ];
  Tablefmt.add_row t [ "faults injected"; string_of_int r.Chaos.faults_injected ];
  List.iter
    (fun (kind, n) ->
      Tablefmt.add_row t
        [ Printf.sprintf "faults explored: %s" kind; string_of_int n ])
    r.Chaos.kinds;
  Tablefmt.add_row t
    [ "oracle violations"; string_of_int (List.length r.Chaos.violations) ];
  List.iter
    (fun v ->
      Tablefmt.add_row t
        [ "  violating schedule"; Schedule.to_string v.Chaos.schedule ];
      Tablefmt.add_row t
        [ "  shrunk reproducer"; Schedule.to_string v.Chaos.minimal ])
    r.Chaos.violations;
  let st = Chaos.selftest ~seed in
  let s =
    Tablefmt.create ~title:"oracle selftest (planted violation)"
      ~columns:[ ("check", Tablefmt.Left); ("result", Tablefmt.Right) ]
  in
  Tablefmt.add_row s
    [ "planted violation caught"; string_of_bool st.Chaos.caught ];
  Tablefmt.add_row s
    [ "shrunk to faults"; string_of_int st.Chaos.minimal_faults ];
  Tablefmt.add_row s
    [ "minimal schedule replays byte-identically";
      string_of_bool st.Chaos.st_replay_identical ];
  [ t; s ]
