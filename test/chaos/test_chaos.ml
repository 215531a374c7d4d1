(* Tests for the chaos engine: the Wing–Gong linearizability checker
   on hand-built histories (legal and illegal), schedule shrinking
   neighbourhoods, byte-identical replay of individual runs, a small
   all-green campaign, and the oracle selftest (a planted violation
   must be caught, shrunk to zero faults, and replayed). *)

module Lin = Chorus_chaos.Lin
module Schedule = Chorus_chaos.Schedule
module Chaos = Chorus_chaos.Chaos

(* ------------------------------------------------------------------ *)
(* Lin: per-key register checker                                       *)

let op ?value ?returned kind invoked =
  { Lin.proc = 0; kind; value; invoked; returned }

let wr v i r = { (op `Write i ~returned:r) with Lin.value = Some v }

let rd vo i r = { (op `Read i ~returned:r) with Lin.value = vo }

let check_ok what ops =
  match Lin.check ops with
  | `Ok -> ()
  | `Violation m -> Alcotest.failf "%s: unexpected violation: %s" what m

let check_viol what ops =
  match Lin.check ops with
  | `Ok -> Alcotest.failf "%s: expected a violation, got `Ok" what
  | `Violation _ -> ()

let test_lin_sequential () =
  check_ok "write then read"
    [ wr "a" 0 10; rd (Some "a") 20 30 ];
  check_ok "overwrite then read"
    [ wr "a" 0 10; wr "b" 20 30; rd (Some "b") 40 50 ];
  check_ok "initial miss" [ rd None 0 10; wr "a" 20 30 ]

let test_lin_concurrent () =
  (* reads overlapping a write may see either side of it *)
  check_ok "overlapping read sees new"
    [ wr "a" 0 10; wr "b" 20 100; rd (Some "b") 50 60 ];
  check_ok "overlapping read sees old"
    [ wr "a" 0 10; wr "b" 20 100; rd (Some "a") 50 60 ];
  (* two concurrent writes: order is free, later read pins it *)
  check_ok "concurrent writes, either wins"
    [ wr "a" 0 100; wr "b" 0 100; rd (Some "a") 200 210 ]

let test_lin_stale_read () =
  check_viol "stale read after overwrite"
    [ wr "a" 0 10; wr "b" 20 30; rd (Some "a") 40 50 ];
  check_viol "read of never-written value"
    [ wr "a" 0 10; rd (Some "ghost") 20 30 ];
  check_viol "miss after completed write"
    [ wr "a" 0 10; rd None 20 30 ]

let test_lin_lost_write () =
  (* a lost write may take effect any time after invocation... *)
  check_ok "lost write observed later"
    [ { (wr "a" 0 0) with Lin.returned = None }; rd (Some "a") 100 110 ];
  (* ...or never *)
  check_ok "lost write never applied"
    [ { (wr "a" 0 0) with Lin.returned = None }; rd None 100 110 ];
  (* but never before its invocation *)
  check_viol "lost write seen before invoked"
    [ rd (Some "a") 0 10; { (wr "a" 100 0) with Lin.returned = None } ]

let test_lin_lost_read () =
  (* a lost read constrains nothing, even an impossible-looking one *)
  check_ok "lost read dropped"
    [ wr "a" 0 10;
      { (rd (Some "ghost") 20 0) with Lin.returned = None };
      rd (Some "a") 40 50 ]

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)

let test_schedule_subschedules () =
  let s =
    { Schedule.seed = 9;
      faults =
        [ Schedule.Kill_point { point = "chaos.store"; at = 100; dur = 50 };
          Schedule.Disk_errors { at = 200; dur = 80; p = 0.3 };
          Schedule.Frame_loss { at = 10; dur = 20; p = 0.1 } ] }
  in
  let subs = Schedule.subschedules s in
  Alcotest.(check int) "one per fault" 3 (List.length subs);
  List.iter
    (fun sub ->
      Alcotest.(check int) "seed preserved" 9 sub.Schedule.seed;
      Alcotest.(check int) "one fault dropped" 2 (Schedule.nfaults sub))
    subs;
  Alcotest.(check (list string))
    "kind tags"
    [ "kill-point"; "disk"; "loss" ]
    (List.map Schedule.kind s.Schedule.faults);
  let str = Schedule.to_string s in
  Alcotest.(check bool) "to_string names seed" true
    (String.length str > 6 && String.sub str 0 6 = "seed=9")

let test_schedule_link_fault_round_trip () =
  (* the two gray fault kinds survive to_string/of_string exactly *)
  let s =
    { Schedule.seed = 7;
      faults =
        [ Schedule.Link_delay
            { src = 0; dst = 2; at = 1_100_000; dur = 400_000; p = 0.65;
              cycles = 200_000 };
          Schedule.Partition { src = 2; dst = 0; at = 1_300_000; dur = 250_000 } ] }
  in
  let str = Schedule.to_string s in
  Alcotest.(check string) "round trip is exact" str
    (Schedule.to_string (Schedule.of_string str));
  Alcotest.(check (list string))
    "kind tags" [ "link-delay"; "partition" ]
    (List.map Schedule.kind s.Schedule.faults)

let test_schedule_malformed_partition_rejected () =
  (* a partition spec without its (src>dst) link is meaningless *)
  List.iter
    (fun bad ->
      match Schedule.of_string ("seed=1 " ^ bad) with
      | (_ : Schedule.t) ->
        Alcotest.failf "malformed %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "partition@100+200";
      "partition()@100+200";
      "partition(3)@100+200";
      "link-delay(0>1)@100+200" ]

(* ------------------------------------------------------------------ *)
(* Chaos runs                                                          *)

let test_gen_deterministic () =
  let a = Chaos.gen Chaos.Disk ~seed:5 ~index:3 in
  let b = Chaos.gen Chaos.Disk ~seed:5 ~index:3 in
  Alcotest.(check string)
    "gen is a pure function of (seed, index)"
    (Schedule.to_string a) (Schedule.to_string b);
  let zero = Chaos.gen Chaos.Disk ~seed:5 ~index:0 in
  Alcotest.(check int) "index 0 is fault-free" 0 (Schedule.nfaults zero)

let test_run_replays () =
  let sch = Chaos.gen Chaos.Disk ~seed:5 ~index:2 in
  let a = Chaos.run_one Chaos.Disk sch in
  let b = Chaos.run_one Chaos.Disk sch in
  Alcotest.(check string) "same schedule, same digest" a.Chaos.digest
    b.Chaos.digest;
  Alcotest.(check (list string)) "no violations" [] a.Chaos.violations;
  Alcotest.(check bool) "history non-trivial" true (a.Chaos.ops >= 20)

let test_campaign_green () =
  let r = Chaos.campaign ~runs:[ (Chaos.Disk, 6); (Chaos.Kv, 2) ] ~seed:42 () in
  Alcotest.(check int) "runs" 8 r.Chaos.runs;
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations);
  Alcotest.(check bool) "ops recorded" true (r.Chaos.total_ops > 100)

(* The lease-safety claim (DESIGN.md D13): kill each node in turn
   while the cluster runs the batched, leased hot path — one of the
   three is the leader, killed while holding a live lease — and the
   linearizability oracle must stay green (no deposed leader served a
   stale local read).  The runs must also have actually exercised the
   lease path, or the claim is vacuous, and must replay
   byte-identically. *)
let test_lease_kill_no_stale_reads () =
  let leased_total = ref 0 in
  for node = 0 to 2 do
    let sch =
      { Schedule.seed = 40 + node;
        faults = [ Schedule.Kill_node { node; at = 1_200_000 } ] }
    in
    let a = Chaos.run_one Chaos.Kv_lease sch in
    let b = Chaos.run_one Chaos.Kv_lease sch in
    Alcotest.(check (list string))
      (Printf.sprintf "kill node %d: no violations" node)
      [] a.Chaos.violations;
    Alcotest.(check string)
      (Printf.sprintf "kill node %d: replays" node)
      a.Chaos.digest b.Chaos.digest;
    leased_total := !leased_total + a.Chaos.leased_reads
  done;
  Alcotest.(check bool) "lease path exercised" true (!leased_total > 0)

let test_lease_campaign_green () =
  let r =
    Chaos.campaign
      ~runs:[ (Chaos.Disk, 0); (Chaos.Kv, 0); (Chaos.Kv_lease, 6) ]
      ~seed:17 ()
  in
  Alcotest.(check int) "runs" 6 r.Chaos.runs;
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations)

(* The gray claim: per-link delay and asymmetric partition windows
   against clients running breakers and deadline budgets — the
   liveness oracle (every op returns within budget + slack) and
   linearizability must both stay green, and runs must replay
   byte-identically. *)
let test_gray_run_replays () =
  let sch = Chaos.gen Chaos.Gray ~seed:11 ~index:2 in
  let a = Chaos.run_one Chaos.Gray sch in
  let b = Chaos.run_one Chaos.Gray sch in
  Alcotest.(check string) "same schedule, same digest" a.Chaos.digest
    b.Chaos.digest;
  Alcotest.(check (list string)) "no violations" [] a.Chaos.violations;
  Alcotest.(check bool) "history non-trivial" true (a.Chaos.ops >= 10)

let test_gray_campaign_green () =
  let r =
    Chaos.campaign
      ~runs:[ (Chaos.Disk, 0); (Chaos.Kv, 0); (Chaos.Gray, 8) ]
      ~seed:17 ()
  in
  Alcotest.(check int) "runs" 8 r.Chaos.runs;
  Alcotest.(check int) "all oracles green" 0 (List.length r.Chaos.violations);
  Alcotest.(check bool) "gray fault kinds explored" true
    (List.exists
       (fun (k, n) -> (k = "link-delay" || k = "partition") && n > 0)
       r.Chaos.kinds)

(* A Bcache shard whose refill exhausts its read retries used to die
   with the request, leaving the supervised store blocked forever on
   its reply.  This is the minimal schedule that showed it. *)
let test_disk_read_errors_recover () =
  let sch = Schedule.of_string "seed=27126 disk(p=0.70)@55846+259275" in
  Alcotest.(check (list string))
    "no violations" [] (Chaos.run_one Chaos.Disk sch).Chaos.violations

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_of_name () =
  List.iter
    (fun (n, s) ->
      Alcotest.(check bool) ("resolves " ^ n) true (Chaos.of_name n = Some s))
    [ ("disk", Chaos.Disk); ("kv", Chaos.Kv); ("cluster", Chaos.Kv);
      ("projfs", Chaos.Projfs); ("lease", Chaos.Kv_lease);
      ("kv-lease", Chaos.Kv_lease); ("gray", Chaos.Gray) ];
  List.iter
    (fun s ->
      let sp = Chaos.spec s in
      List.iter
        (fun n ->
          Alcotest.(check bool) ("registry name " ^ n) true
            (Chaos.of_name n = Some s))
        (sp.Chaos.name :: sp.Chaos.aliases))
    Chaos.all;
  List.iter
    (fun n ->
      Alcotest.(check bool) ("rejects " ^ n) true (Chaos.of_name n = None))
    [ ""; "Disk"; "kv_lease"; "nope" ]

let all_five = [ (Chaos.Disk, 4); (Chaos.Kv, 2); (Chaos.Projfs, 2);
                 (Chaos.Kv_lease, 2); (Chaos.Gray, 2) ]

(* every scenario, pinned: any change to a scenario's body, fault
   generator or the campaign's task order moves this digest *)
let test_pinned_campaign () =
  let r = Chaos.campaign ~runs:all_five ~seed:42 () in
  Alcotest.(check int) "runs" 12 r.Chaos.runs;
  Alcotest.(check int) "ops" 302 r.Chaos.total_ops;
  Alcotest.(check int) "violations" 0 (List.length r.Chaos.violations);
  Alcotest.(check string) "digest" "a4e320241a027e8c08a5806c4c828eee"
    r.Chaos.campaign_digest

let test_runs_order_irrelevant () =
  let digest runs = (Chaos.campaign ~runs ~seed:3 ()).Chaos.campaign_digest in
  let runs = [ (Chaos.Disk, 2); (Chaos.Kv, 0); (Chaos.Projfs, 1) ] in
  Alcotest.(check string) "reversed ~runs, same digest" (digest runs)
    (digest (List.rev runs))

let test_selftest () =
  let st = Chaos.selftest ~seed:11 in
  Alcotest.(check bool) "planted violation caught" true st.Chaos.caught;
  Alcotest.(check int) "shrinks to zero faults" 0 st.Chaos.minimal_faults;
  Alcotest.(check bool) "minimal schedule replays" true
    st.Chaos.st_replay_identical

let () =
  Alcotest.run "chaos"
    [ ( "lin",
        [ Alcotest.test_case "sequential" `Quick test_lin_sequential;
          Alcotest.test_case "concurrent" `Quick test_lin_concurrent;
          Alcotest.test_case "stale-read" `Quick test_lin_stale_read;
          Alcotest.test_case "lost-write" `Quick test_lin_lost_write;
          Alcotest.test_case "lost-read" `Quick test_lin_lost_read ] );
      ( "schedule",
        [ Alcotest.test_case "subschedules" `Quick test_schedule_subschedules;
          Alcotest.test_case "link-fault round trip" `Quick
            test_schedule_link_fault_round_trip;
          Alcotest.test_case "malformed specs rejected" `Quick
            test_schedule_malformed_partition_rejected ] );
      ( "engine",
        [ Alcotest.test_case "gen-deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "run-replays" `Quick test_run_replays;
          Alcotest.test_case "campaign-green" `Quick test_campaign_green;
          Alcotest.test_case "lease-kill" `Quick test_lease_kill_no_stale_reads;
          Alcotest.test_case "lease-campaign" `Quick test_lease_campaign_green;
          Alcotest.test_case "gray-replays" `Quick test_gray_run_replays;
          Alcotest.test_case "gray-campaign" `Quick test_gray_campaign_green;
          Alcotest.test_case "disk-read-errors-recover" `Quick
            test_disk_read_errors_recover;
          Alcotest.test_case "selftest" `Quick test_selftest ] );
      ( "registry",
        [ Alcotest.test_case "of-name" `Quick test_of_name;
          Alcotest.test_case "pinned-campaign" `Quick test_pinned_campaign;
          Alcotest.test_case "runs-order-irrelevant" `Quick
            test_runs_order_irrelevant ] ) ]
