(* Edge-case tests for the runtime: interactions between close, kill,
   choice, timers, tracing and the scheduler that the main suite does
   not cover. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Runstats = Chorus.Runstats
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Engine = Chorus.Engine
module Trace = Chorus.Trace

let run ?(cores = 4) ?(seed = 42) main =
  Runtime.run (Runtime.config ~seed (Machine.mesh ~cores)) main

(* ------------------------------------------------------------------ *)
(* close / choice interactions                                         *)

let test_close_aborts_blocked_choice () =
  let got = ref "" in
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let b : int Chan.t = Chan.rendezvous () in
        let chooser =
          Fiber.spawn (fun () ->
              match
                Chan.choose
                  [ Chan.recv_case a (fun _ -> "a");
                    Chan.recv_case b (fun _ -> "b") ]
              with
              | s -> got := s
              | exception Chan.Closed -> got := "closed")
        in
        Fiber.sleep 1_000;
        Chan.close a;
        ignore (Fiber.join chooser))
  in
  Alcotest.(check string) "choice aborted by close" "closed" !got

let test_closed_channel_ready_in_choice () =
  (* a closed+drained channel counts as ready; its arm raises *)
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.buffered 1 in
        Chan.close a;
        match
          Chan.choose [ Chan.recv_case a (fun _ -> "value") ]
        with
        | _ -> Alcotest.fail "expected Closed"
        | exception Chan.Closed -> ())
  in
  ()

let test_choice_drains_buffer_of_closed_channel () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered 2 in
        Chan.send a 1;
        Chan.send a 2;
        Chan.close a;
        let v1 = Chan.choose [ Chan.recv_case a (fun v -> v) ] in
        let v2 = Chan.choose [ Chan.recv_case a (fun v -> v) ] in
        Alcotest.(check (list int)) "buffered survive close" [ 1; 2 ]
          [ v1; v2 ])
  in
  ()

let test_kill_blocked_choice_leaves_channels_clean () =
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let b : int Chan.t = Chan.rendezvous () in
        let chooser =
          Fiber.spawn (fun () ->
              ignore
                (Chan.choose
                   [ Chan.recv_case a (fun v -> v);
                     Chan.recv_case b (fun v -> v) ]))
        in
        Fiber.sleep 1_000;
        Fiber.kill chooser;
        ignore (Fiber.join chooser);
        (* stale registrations must not swallow a later send *)
        let r = Fiber.spawn (fun () -> ignore (Chan.recv a)) in
        Fiber.sleep 1_000;
        Chan.send a 42;
        ignore (Fiber.join r))
  in
  ()

let test_two_choices_race_one_value () =
  let winners = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let a : int Chan.t = Chan.rendezvous () in
        let make_chooser () =
          Fiber.spawn (fun () ->
              match
                Chan.choose
                  [ Chan.recv_case a (fun v -> v);
                    Chan.after 100_000 (fun () -> -1) ]
              with
              | -1 -> ()
              | _ -> incr winners)
        in
        let c1 = make_chooser () and c2 = make_chooser () in
        Fiber.sleep 1_000;
        Chan.send a 7;
        ignore (Fiber.join c1);
        ignore (Fiber.join c2))
  in
  Alcotest.(check int) "exactly one choice wins" 1 !winners

let test_choice_only_timers () =
  let (_ : Runstats.t) =
    run (fun () ->
        let t0 = Fiber.now () in
        let which =
          Chan.choose
            [ Chan.after 5_000 (fun () -> "slow");
              Chan.after 1_000 (fun () -> "fast") ]
        in
        Alcotest.(check string) "earliest timer" "fast" which;
        Alcotest.(check bool) "waited only the short delay" true
          (Fiber.now () - t0 < 3_000))
  in
  ()

let test_send_case_fires_when_space_frees () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 1 in
        Chan.send c 0;
        (* buffer full: the send case must block until the consumer
           drains *)
        let consumer =
          Fiber.spawn (fun () ->
              Fiber.sleep 5_000;
              ignore (Chan.recv c);
              ignore (Chan.recv c))
        in
        let tag =
          Chan.choose [ Chan.send_case c 1 (fun () -> "sent") ]
        in
        Alcotest.(check string) "send case completed" "sent" tag;
        ignore (Fiber.join consumer))
  in
  ()

(* ------------------------------------------------------------------ *)
(* offer commitment under kills and closes                             *)

(* Random fibers over 2-4 channels of mixed capacity do plain sends and
   receives and [choose]s over recv cases, send cases and timeouts,
   while a killer aborts some of them mid-wait and a closer shuts some
   channels.  Whatever the interleaving: no value is received twice,
   every completed send's value was received or is still buffered, and
   no choice ran two arms.  Each blocked offer commits only through its
   fiber's one-shot waker, so these are the properties that mechanism
   must keep. *)
let prop_offers_commit_once =
  QCheck.Test.make ~name:"offers commit once" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let pick n = Random.State.int rs n in
      let nchans = 2 + pick 3 in
      let next_val = ref 0 in
      let fresh () =
        incr next_val;
        !next_val
      in
      let sent = ref [] and received = ref [] and arms = ref [] in
      let stopped = ref false in
      let (_ : Runstats.t) =
        run ~seed (fun () ->
            let chans =
              Array.init nchans (fun _ ->
                  match pick 4 with
                  | 0 -> Chan.rendezvous ()
                  | 1 -> Chan.buffered 1
                  | 2 -> Chan.buffered (2 + pick 2)
                  | _ -> Chan.unbounded ())
            in
            let chan () = chans.(pick nchans) in
            let op () =
              match pick 3 with
              | 0 ->
                let v = fresh () in
                Chan.send (chan ()) v;
                sent := v :: !sent
              | 1 ->
                let v = Chan.recv (chan ()) in
                received := v :: !received
              | _ ->
                let ran = ref 0 in
                arms := ran :: !arms;
                let case () =
                  match pick 3 with
                  | 0 ->
                    Chan.recv_case (chan ()) (fun v ->
                        incr ran;
                        received := v :: !received)
                  | 1 ->
                    let v = fresh () in
                    Chan.send_case (chan ()) v (fun () ->
                        incr ran;
                        sent := v :: !sent)
                  | _ -> Chan.after (1 + pick 3_000) (fun () -> incr ran)
                in
                Chan.choose (List.init (1 + pick 3) (fun _ -> case ()))
            in
            let workers =
              Array.init (3 + pick 6) (fun _ ->
                  let plan = List.init (1 + pick 6) (fun _ -> pick 2_000) in
                  Fiber.spawn ~daemon:true (fun () ->
                      List.iter
                        (fun work ->
                          Fiber.work work;
                          if not !stopped then
                            try op () with Chan.Closed -> ())
                        plan))
            in
            for _ = 1 to pick 3 do
              let victim = workers.(pick (Array.length workers)) in
              let at = pick 20_000 in
              ignore
                (Fiber.spawn ~daemon:true (fun () ->
                     Fiber.sleep at;
                     Fiber.kill victim))
            done;
            for _ = 1 to pick 3 do
              let c = chan () and at = pick 30_000 in
              ignore
                (Fiber.spawn ~daemon:true (fun () ->
                     Fiber.sleep at;
                     Chan.close c))
            done;
            Fiber.sleep 1_000_000;
            (* whatever is still buffered (or offered by a sender that
               is still blocked) counts as not lost; a worker the drain
               unblocks finishes that op and starts no other *)
            stopped := true;
            Array.iter
              (fun c ->
                let rec drain () =
                  match Chan.try_recv c with
                  | Some v ->
                    received := v :: !received;
                    drain ()
                  | None | (exception Chan.Closed) -> ()
                in
                drain ())
              chans)
      in
      let sorted = List.sort compare !received in
      let rec distinct = function
        | a :: (b :: _ as tl) -> a <> b && distinct tl
        | _ -> true
      in
      distinct sorted
      && List.for_all (fun v -> List.mem v sorted) !sent
      && List.for_all (fun r -> !r <= 1) !arms)

(* ------------------------------------------------------------------ *)
(* scheduler behaviour                                                 *)

let test_yield_interleaves_on_one_core () =
  let log = ref [] in
  let (_ : Runstats.t) =
    run ~cores:1 (fun () ->
        let mk tag =
          Fiber.spawn ~on:0 (fun () ->
              for _ = 1 to 3 do
                log := tag :: !log;
                Fiber.yield ()
              done)
        in
        let a = mk "a" and b = mk "b" in
        ignore (Fiber.join a);
        ignore (Fiber.join b))
  in
  Alcotest.(check (list string)) "round-robin interleave"
    [ "a"; "b"; "a"; "b"; "a"; "b" ]
    (List.rev !log)

let test_timers_fire_in_order () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let fibers =
          List.map
            (fun (delay, tag) ->
              Fiber.spawn (fun () ->
                  Fiber.sleep delay;
                  order := tag :: !order))
            [ (30_000, "c"); (10_000, "a"); (20_000, "b") ]
        in
        List.iter (fun f -> ignore (Fiber.join f)) fibers)
  in
  Alcotest.(check (list string)) "timer order" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_deadlock_names_the_culprit () =
  (try
     ignore
       (run (fun () ->
            let c : int Chan.t = Chan.rendezvous ~label:"stuck-chan" () in
            let f =
              Fiber.spawn ~label:"the-culprit" (fun () ->
                  ignore (Chan.recv c))
            in
            ignore (Fiber.join f)));
     Alcotest.fail "expected deadlock"
   with Engine.Deadlock msg ->
     let contains needle =
       let rec go i =
         i + String.length needle <= String.length msg
         && (String.sub msg i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     Alcotest.(check bool) "names the fiber" true (contains "the-culprit");
     Alcotest.(check bool) "names the channel" true (contains "stuck-chan"))

let test_monitor_order () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run (fun () ->
        let f = Fiber.spawn (fun () -> Fiber.work 1_000) in
        Fiber.monitor f (fun ~time:_ _ -> order := 1 :: !order);
        Fiber.monitor f (fun ~time:_ _ -> order := 2 :: !order);
        ignore (Fiber.join f);
        Fiber.sleep 1_000)
  in
  Alcotest.(check (list int)) "registration order" [ 1; 2 ] (List.rev !order)

let test_trace_block_then_wake () =
  let sink, get = Trace.collector () in
  let (_ : Runstats.t) =
    Runtime.run
      (Runtime.config ~trace:sink (Machine.mesh ~cores:2))
      (fun () ->
        let c = Chan.rendezvous () in
        let r = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        Fiber.sleep 2_000;
        Chan.send c 5;
        ignore (Fiber.join r))
  in
  let records = get () in
  (* the receiver must block before the sender's Send record *)
  let idx p =
    let rec go i = function
      | [] -> -1
      | r :: rest -> if p r then i else go (i + 1) rest
    in
    go 0 records
  in
  let block_i =
    idx (fun r ->
        match r.Trace.event with Trace.Block _ -> true | _ -> false)
  in
  let send_i =
    idx (fun r ->
        match r.Trace.event with Trace.Send _ -> true | _ -> false)
  in
  Alcotest.(check bool) "block precedes send" true
    (block_i >= 0 && send_i > block_i)

(* ------------------------------------------------------------------ *)
(* event core: ordering, registry, inspection, channel naming          *)

let prop_schedule_at_order =
  (* delays in 0..7 give many ties; every third callback registers a
     follow-up at its own time, which must fire after every callback
     already queued for that time *)
  QCheck.Test.make ~name:"schedule_at order"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 7))
    (fun delays ->
      let fired = ref [] in
      let (_ : Runstats.t) =
        run ~cores:2 (fun () ->
            let eng = Engine.current () in
            let base = Engine.now eng in
            List.iteri
              (fun i d ->
                let at = base + (d * 100) in
                Engine.schedule_at eng at (fun () ->
                    fired := (d, i) :: !fired;
                    if i mod 3 = 0 then
                      Engine.schedule_at eng at (fun () ->
                          fired := (d, 1_000 + i) :: !fired)))
              delays;
            Fiber.sleep 1_000)
      in
      let tagged = List.mapi (fun i d -> (d, i)) delays in
      let expected =
        List.concat_map
          (fun d ->
            let at_d = List.filter (fun (d', _) -> d' = d) tagged in
            at_d
            @ List.filter_map
                (fun (_, i) ->
                  if i mod 3 = 0 then Some (d, 1_000 + i) else None)
                at_d)
          [ 0; 1; 2; 3; 4; 5; 6; 7 ]
      in
      List.rev !fired = expected)

let deadlock_message main =
  match run main with
  | (_ : Runstats.t) -> Alcotest.fail "expected deadlock"
  | exception Engine.Deadlock msg -> msg

let test_registry_after_many_spawns () =
  (* the live-fiber table must forget finished fibers: after 10k
     short-lived spawns the report names the one stuck fiber only *)
  let msg =
    deadlock_message (fun () ->
        for _ = 1 to 10_000 do
          ignore (Fiber.spawn (fun () -> Fiber.yield ()))
        done;
        let c : int Chan.t = Chan.rendezvous ~label:"stuck-chan" () in
        ignore
          (Fiber.spawn ~on:1 ~label:"stuck" (fun () -> ignore (Chan.recv c))))
  in
  Alcotest.(check string) "only the stuck fiber"
    "no pending events but non-daemon fibers remain blocked:\n\
    \  fiber 10001 (stuck) on core 1 waiting on recv:stuck-chan"
    msg

let paused_golden =
  {|now: 378
horizon: 5232
seed: 7
machine: mesh-1x2 (2 cores)
machine_facts:
  cores: 2
  diameter: 1
  msg_inject: 24
  msg_per_hop: 6
  msg_per_word: 2
  msg_receive: 24
  cache_miss: 40
  coherence_per_hop: 5
events_pending: 3
live_fibers: 4
live_nondaemon: 4
counters:
  msgs: 1
  remote_msgs: 1
  words_copied: 2
  hops: 1
  spawns: 5
  steals: 0
  segments: 3
  events: 8
  wakes: 6
  retries: 0
cores:
  -
    core: 0
    free_at: 408
    busy: 408
    pending: 1
    runq: []
  -
    core: 1
    free_at: 5232
    busy: 5060
    pending: 0
    runq:
      -
        fid: 2
        label: worker-2
      -
        fid: 3
        label: worker-3
fibers:
  -
    fid: 0
    label: main
    core: 0
    state: runnable
    wait: 
    prio: normal
    daemon: false
  -
    fid: 2
    label: worker-2
    core: 1
    state: runnable
    wait: 
    prio: normal
    daemon: false
  -
    fid: 3
    label: worker-3
    core: 1
    state: runnable
    wait: 
    prio: normal
    daemon: false
  -
    fid: 4
    label: sleeper
    core: 0
    state: blocked
    wait: sleep
    prio: normal
    daemon: false
|}

let test_inspect_paused_shape () =
  (* a run paused while core 1 has a backlog: the snapshot lists the
     queued fibers in run-queue order, the pending wake on core 0, the
     pending events and the live fibers in fid order *)
  let eng =
    Engine.create
      { (Engine.default_config (Machine.mesh ~cores:2)) with seed = 7 }
  in
  Engine.start eng (fun () ->
      let c : int Chan.t = Chan.rendezvous () in
      for i = 1 to 3 do
        ignore
          (Fiber.spawn ~on:1 ~label:(Printf.sprintf "worker-%d" i) (fun () ->
               Fiber.work 5_000;
               ignore (Chan.recv c)))
      done;
      ignore
        (Fiber.spawn ~on:0 ~label:"sleeper" (fun () -> Fiber.sleep 100_000));
      Chan.send c 1);
  Engine.run_until eng 3_000;
  Alcotest.(check string) "paused snapshot" paused_golden
    (Chorus.Inspect.render (Engine.inspect eng));
  Alcotest.(check int) "events_pending" 3 (Engine.pending_events eng);
  Engine.run_until eng 20_000;
  let later = Chorus.Inspect.render (Engine.inspect eng) in
  let count needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length later then acc
      else go (i + 1) (if String.sub later i n = needle then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "workers wait on the anonymous channel" 2
    (count "wait: recv:chan-0\n");
  Alcotest.(check int) "runq drained" 2 (count "runq: []\n");
  Engine.stop eng

let test_anonymous_chan_label () =
  let anon_id = ref (-1) and labels = ref [] in
  let msg =
    deadlock_message (fun () ->
        let a : int Chan.t = Chan.unbounded () in
        let e : int Chan.t = Chan.rendezvous ~label:"" () in
        anon_id := Chan.id a;
        labels := [ Chan.label a; Chan.label e ];
        ignore
          (Fiber.spawn ~on:1 ~label:"anon-reader" (fun () ->
               ignore (Chan.recv a)));
        ignore
          (Fiber.spawn ~on:1 ~label:"empty-reader" (fun () ->
               ignore (Chan.recv e))))
  in
  let anon = Printf.sprintf "chan-%d" !anon_id in
  Alcotest.(check (list string)) "labels" [ anon; "" ] !labels;
  Alcotest.(check string) "blocked on the anonymous channel"
    ("no pending events but non-daemon fibers remain blocked:\n\
     \  fiber 1 (anon-reader) on core 1 waiting on recv:" ^ anon
   ^ "\n  fiber 2 (empty-reader) on core 1 waiting on recv:")
    msg

(* ------------------------------------------------------------------ *)
(* misc API                                                            *)

let test_try_recv_closed_raises () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.buffered 1 in
        Chan.close c;
        match Chan.try_recv c with
        | _ -> Alcotest.fail "expected Closed"
        | exception Chan.Closed -> ())
  in
  ()

let test_waiting_counters () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.rendezvous () in
        let r1 = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        let r2 = Fiber.spawn (fun () -> ignore (Chan.recv c)) in
        Fiber.sleep 1_000;
        Alcotest.(check int) "two receivers parked" 2
          (Chan.waiting_receivers c);
        Alcotest.(check int) "no senders" 0 (Chan.waiting_senders c);
        Chan.send c 1;
        Chan.send c 2;
        ignore (Fiber.join r1);
        ignore (Fiber.join r2);
        Alcotest.(check int) "drained" 0 (Chan.waiting_receivers c))
  in
  ()

let test_double_close_is_noop () =
  let (_ : Runstats.t) =
    run (fun () ->
        let c : int Chan.t = Chan.buffered 1 in
        Chan.close c;
        Chan.close c;
        Alcotest.(check bool) "closed" true (Chan.is_closed c))
  in
  ()

let test_spawn_many_fibers () =
  (* the registry compaction path and fid allocation under volume *)
  let (_ : Runstats.t) =
    run ~cores:4 (fun () ->
        for _ = 1 to 50 do
          let fibers =
            List.init 200 (fun _ -> Fiber.spawn (fun () -> Fiber.work 10))
          in
          List.iter (fun f -> ignore (Fiber.join f)) fibers
        done)
  in
  ()

let test_engine_now_monotonic_across_ops () =
  let (_ : Runstats.t) =
    run (fun () ->
        let last = ref 0 in
        let check () =
          let n = Fiber.now () in
          Alcotest.(check bool) "monotonic" true (n >= !last);
          last := n
        in
        check ();
        Fiber.work 100;
        check ();
        Fiber.yield ();
        check ();
        Fiber.sleep 500;
        check ();
        let c = Chan.buffered 1 in
        Chan.send c ();
        check ();
        ignore (Chan.recv c);
        check ())
  in
  ()

let test_choice_fairness () =
  (* two always-ready channels: over many picks, neither starves and
     the split is roughly even (seeded rng tie-breaking) *)
  let a_wins = ref 0 in
  let n = 2_000 in
  let (_ : Runstats.t) =
    run (fun () ->
        let a = Chan.buffered n and b = Chan.buffered n in
        for i = 1 to n do
          Chan.send a i;
          Chan.send b i
        done;
        for _ = 1 to n do
          Chan.choose
            [ Chan.recv_case a (fun _ -> incr a_wins);
              Chan.recv_case b (fun _ -> ()) ]
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "roughly even split (a won %d of %d)" !a_wins n)
    true
    (!a_wins > (n * 4 / 10) && !a_wins < (n * 6 / 10))

let test_buffered_never_exceeds_capacity () =
  let maxlen = ref 0 in
  let (_ : Runstats.t) =
    run (fun () ->
        let c = Chan.buffered 5 in
        let producer =
          Fiber.spawn (fun () ->
              for i = 1 to 100 do
                Chan.send c i;
                maxlen := max !maxlen (Chan.length c)
              done)
        in
        let consumer =
          Fiber.spawn (fun () ->
              for _ = 1 to 100 do
                ignore (Chan.recv c);
                maxlen := max !maxlen (Chan.length c);
                if Fiber.now () mod 3 = 0 then Fiber.yield ()
              done)
        in
        ignore (Fiber.join producer);
        ignore (Fiber.join consumer))
  in
  Alcotest.(check bool)
    (Printf.sprintf "buffer bounded (peak %d)" !maxlen)
    true (!maxlen <= 5)

let test_priority_jumps_queue () =
  let order = ref [] in
  let (_ : Runstats.t) =
    run ~cores:1 (fun () ->
        (* park everything behind main's segment, then observe order *)
        let tag t () = order := t :: !order in
        let _n1 = Fiber.spawn ~on:0 (tag "n1") in
        let _n2 = Fiber.spawn ~on:0 (tag "n2") in
        let _hi = Fiber.spawn ~on:0 ~priority:Fiber.High (tag "hi") in
        Fiber.sleep 100_000)
  in
  Alcotest.(check (list string)) "high priority ran first"
    [ "hi"; "n1"; "n2" ] (List.rev !order)

let () =
  Alcotest.run "chorus-core-edge"
    [ ( "close-choice",
        [ Alcotest.test_case "close aborts blocked choice" `Quick
            test_close_aborts_blocked_choice;
          Alcotest.test_case "closed channel is ready" `Quick
            test_closed_channel_ready_in_choice;
          Alcotest.test_case "drains closed buffer" `Quick
            test_choice_drains_buffer_of_closed_channel;
          Alcotest.test_case "kill leaves channels clean" `Quick
            test_kill_blocked_choice_leaves_channels_clean;
          Alcotest.test_case "two choices, one value" `Quick
            test_two_choices_race_one_value;
          Alcotest.test_case "timer-only choice" `Quick
            test_choice_only_timers;
          Alcotest.test_case "send case unblocks" `Quick
            test_send_case_fires_when_space_frees;
          Alcotest.test_case "choice fairness" `Quick test_choice_fairness;
          Alcotest.test_case "capacity invariant" `Quick
            test_buffered_never_exceeds_capacity;
          QCheck_alcotest.to_alcotest prop_offers_commit_once ] );
      ( "scheduler",
        [ Alcotest.test_case "yield interleaves" `Quick
            test_yield_interleaves_on_one_core;
          Alcotest.test_case "timer order" `Quick test_timers_fire_in_order;
          Alcotest.test_case "deadlock diagnostics" `Quick
            test_deadlock_names_the_culprit;
          Alcotest.test_case "monitor order" `Quick test_monitor_order;
          Alcotest.test_case "trace block/send order" `Quick
            test_trace_block_then_wake;
          Alcotest.test_case "many fibers" `Quick test_spawn_many_fibers;
          Alcotest.test_case "now monotonic" `Quick
            test_engine_now_monotonic_across_ops ] );
      ( "event-core",
        [ QCheck_alcotest.to_alcotest prop_schedule_at_order;
          Alcotest.test_case "registry after 10k spawns" `Quick
            test_registry_after_many_spawns;
          Alcotest.test_case "paused inspect shape" `Quick
            test_inspect_paused_shape;
          Alcotest.test_case "anonymous channel label" `Quick
            test_anonymous_chan_label ] );
      ( "api",
        [ Alcotest.test_case "try_recv closed" `Quick
            test_try_recv_closed_raises;
          Alcotest.test_case "waiting counters" `Quick test_waiting_counters;
          Alcotest.test_case "double close" `Quick test_double_close_is_noop ] );
      ( "priority",
        [ Alcotest.test_case "jumps queue" `Quick test_priority_jumps_queue ] ) ]
