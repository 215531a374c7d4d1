(* Allocation budgets for the core's hot paths, and retention checks
   for channel buffers.

   Each budget loops one entry point [iterations] times inside a run and
   divides the minor-heap words allocated ([Gc.minor_words]) by the
   count; the partner fibers (receivers, servers, demuxes, drivers)
   allocate inside the same loop and are part of the figure.  The count
   is deterministic for a given build, so a budget is an exact ceiling:
   a change that makes one of these paths allocate more fails here.  A
   change that makes one allocate less should lower its budget. *)

module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Svc = Chorus_svc.Svc
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack

let iterations = 10_000

let config () =
  Runtime.config ~policy:(Policy.round_robin ()) ~seed:7
    (Machine.mesh ~cores:64)

let daemon f = ignore (Fiber.spawn ~daemon:true f)

(* Minor words per iteration of the loop that [stage] sets up inside a
   fresh run. *)
let words_per_op stage =
  let out = ref 0.0 in
  ignore
    (Runtime.run (config ()) (fun () ->
         let loop = stage () in
         let w0 = Gc.minor_words () in
         loop iterations;
         out := (Gc.minor_words () -. w0) /. float_of_int iterations));
  !out

let sleep () n =
  for _ = 1 to n do
    Fiber.sleep 10
  done

let send_into c =
  daemon (fun () ->
      let expect = ref 1 in
      while true do
        if Chan.recv c <> !expect then failwith "channel reordered";
        incr expect
      done);
  fun n ->
    for i = 1 to n do
      Chan.send c i
    done

let svc_call () =
  let ep = Svc.create ~subsystem:"test" ~label:"echo" () in
  ignore (Svc.start ep (fun x -> x + 1));
  fun n ->
    for i = 1 to n do
      if Svc.call ep i <> i + 1 then failwith "Svc.call answered wrong"
    done

let stack_call () =
  let net = Fabric.create ~seed:7 () in
  let a = Stack.create net (Fabric.attach net ~label:"a" ()) in
  let b = Stack.create net (Fabric.attach net ~label:"b" ()) in
  daemon (fun () -> Stack.serve b ~port:9 (fun ~src:_ req -> req ^ "!"));
  fun n ->
    for _ = 1 to n do
      match Stack.call a ~dst:(Stack.addr b) ~port:9 "ping" with
      | Some "ping!" -> ()
      | _ -> failwith "Stack.call answered wrong"
    done

(* (name, stage, budget in minor words per op) *)
let budgets =
  [ ("Fiber.sleep", sleep, 37.0);
    ("buffered send/recv", (fun () -> send_into (Chan.buffered 64)), 6.33);
    ("rendezvous send/recv", (fun () -> send_into (Chan.rendezvous ())), 46.01);
    ("Svc.call", svc_call, 133.0);
    ("two-NIC Stack.call", stack_call, 601.27) ]

let budget_case (name, stage, budget) =
  Alcotest.test_case name `Quick (fun () ->
      let w = words_per_op stage in
      if w > budget then
        Alcotest.failf "%s allocates %.2f minor words per op, budget %.2f"
          name w budget)

(* A value taken from a channel's buffer must not stay reachable from
   the channel while the channel lives on. *)
let test_chan_buffer_releases () =
  let w = Weak.create 3 in
  ignore
    (Runtime.run (config ()) (fun () ->
         let c = Chan.buffered 4 in
         List.iter
           (fun k ->
             let v = ref k in
             Weak.set w k (Some v);
             Chan.send c v)
           [ 0; 1; 2 ];
         List.iter
           (fun k ->
             Alcotest.(check int) "fifo order" k !(Chan.recv c);
             Gc.full_major ();
             Alcotest.(check bool)
               (Printf.sprintf "value %d collectable once received" k)
               true (Weak.get w k = None))
           [ 0; 1; 2 ];
         Alcotest.(check int) "drained" 0 (Chan.length c)))

let () =
  Alcotest.run "chorus-alloc"
    [ ("budgets", List.map budget_case budgets);
      ( "retention",
        [ Alcotest.test_case "chan buffer releases received values" `Quick
            test_chan_buffer_releases ] ) ]
