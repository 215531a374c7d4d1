(* Per-layer microbenchmarks, timed from outside the workloads' timed
   phases.  Each loops one public entry point of a layer [n] times inside
   a fresh run on the 64-core mesh and reports host ns/op at nominal
   speed (median of three repeats), minor words/op and virtual
   cycles/op.  Every loop
   checks its answers and fails the benchmark on a wrong one. *)

open Harness
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Runtime = Chorus.Runtime
module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Svc = Chorus_svc.Svc
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client
module Kernel = Chorus_kernel.Kernel
module Msgvfs = Chorus_kernel.Msgvfs
module Lin = Chorus_chaos.Lin

let reps = 3
let seed = 7

let config () =
  Runtime.config ~policy:(Policy.round_robin ()) ~seed (Machine.mesh ~cores:64)

let fail fmt = Printf.ksprintf failwith fmt

(* [cost f] inside a run, with the virtual cycles [f] took. *)
let cost_in_run f =
  let v0 = Fiber.now () in
  let secs, words = cost f in
  (secs, words, Fiber.now () - v0)

(* [cost f] outside any run. *)
let cost_outside f =
  let secs, words = cost f in
  (secs, words, 0)

(* Time [loop n] in the main fiber of a fresh run; [stage] sets the run
   up (servers, files) and returns the loop. *)
let in_run ~n stage () =
  let out = ref (0.0, 0.0, 0) in
  ignore
    (Runtime.run (config ()) (fun () ->
         let loop = stage () in
         out := cost_in_run (fun () -> loop n)));
  !out

let measure ~n stage = ub_repeat ~reps ~n (in_run ~n stage)

let daemon f = ignore (Fiber.spawn ~daemon:true f)

let timer () n =
  for _ = 1 to n do
    Fiber.sleep 10
  done

let spawn () n =
  for _ = 1 to n do
    match Fiber.join (Fiber.spawn (fun () -> ())) with
    | Fiber.Normal -> ()
    | _ -> fail "spawned fiber did not exit normally"
  done

(* [n] empty runs on the 64-core mesh, timed outside any run. *)
let empty_runs ~n () =
  cost_outside (fun () ->
      for _ = 1 to n do
        ignore (Runtime.run (config ()) (fun () -> ()))
      done)

let sink_into (c : int Chan.t) () =
  daemon (fun () ->
      let expect = ref 1 in
      while true do
        let v = Chan.recv c in
        if v <> !expect then fail "channel reordered %d" v;
        incr expect
      done);
  fun n ->
    for i = 1 to n do
      Chan.send c i
    done

let rendezvous () = sink_into (Chan.rendezvous ()) ()
let buffered () = sink_into (Chan.buffered 64) ()

let choose () =
  let a : int Chan.t = Chan.buffered 64 and b : int Chan.t = Chan.buffered 64 in
  daemon (fun () ->
      while true do
        Chan.choose
          [ Chan.recv_case a ignore;
            Chan.recv_case b (fun _ -> fail "choice took the idle arm") ]
      done);
  fun n ->
    for i = 1 to n do
      Chan.send a i
    done

let svc_call () =
  let ep = Svc.create ~subsystem:"perfbench" ~label:"echo" () in
  ignore (Svc.start ep (fun x -> x + 1));
  fun n ->
    for i = 1 to n do
      if Svc.call ep i <> i + 1 then fail "Svc.call answered wrong"
    done

let net_call () =
  let net = Fabric.create ~seed () in
  let a = Stack.create net (Fabric.attach net ~label:"ub-a" ()) in
  let b = Stack.create net (Fabric.attach net ~label:"ub-b" ()) in
  daemon (fun () -> Stack.serve b ~port:9 (fun ~src:_ req -> req ^ "!"));
  fun n ->
    for _ = 1 to n do
      match Stack.call a ~dst:(Stack.addr b) ~port:9 "ping" with
      | Some "ping!" -> ()
      | _ -> fail "Stack.call answered wrong"
    done

(* Unloaded single-client puts, then leased gets of the same keys, on
   the kv workloads' cluster. *)
let client_ops ~n () =
  let out = ref [] in
  ignore
    (Runtime.run (config ()) (fun () ->
         let net = Fabric.create ~latency:5_000 ~loss:0.0 ~seed () in
         let c =
           Cluster.create ~raft:(Kv.raft_config ~seed) ~nshards:Kv.nshards
             ~replication:Kv.replicas ~seed ~nnodes:Kv.replicas net
         in
         Cluster.start c;
         Fiber.sleep 1_000_000;
         let stack = Stack.create net (Fabric.attach net ~label:"ub-client" ()) in
         let client = Client.create ~seed ~bootstrap:(Cluster.addrs c) stack in
         ignore (Client.get client "warm-up");
         let time name loop = out := (name, cost_in_run loop) :: !out in
         time "put" (fun () ->
             for i = 1 to n do
               if Client.put client (Kv.key i) Kv.put_value <> `Ok then
                 fail "Client.put failed"
             done);
         time "get" (fun () ->
             for i = 1 to n do
               if Client.get client (Kv.key i) <> `Found Kv.put_value then
                 fail "Client.get answered wrong"
             done);
         Cluster.stop c));
  !out

let msgvfs_ops ~n () =
  let out = ref [] in
  ignore
    (Runtime.run (config ()) (fun () ->
         let kern = Kernel.boot Kernel.default_config in
         let fs = Kernel.fs_client kern in
         let ok = function Ok v -> v | Error _ -> fail "msgvfs op failed" in
         ok (Msgvfs.create fs "/ub");
         let fd = ok (Msgvfs.open_ fs "/ub") in
         let data = String.make 4096 'u' in
         ignore (ok (Msgvfs.write fs fd ~off:0 data));
         let time name loop = out := (name, cost_in_run loop) :: !out in
         time "stat" (fun () ->
             for _ = 1 to n do
               if (ok (Msgvfs.stat fs "/ub")).Chorus_fsspec.Fsspec.size <> 4096
               then fail "Msgvfs.stat answered wrong"
             done);
         time "read" (fun () ->
             for i = 1 to n do
               let off = i mod 3840 in
               if ok (Msgvfs.read fs fd ~off ~len:256) <> String.sub data off 256
               then fail "Msgvfs.read answered wrong"
             done)));
  !out

(* Twelve overlapping register ops from three processes: each read
   returns the value written just before it. *)
let lin_history =
  List.init 12 (fun i ->
      let t = i * 10 in
      if i mod 2 = 0 then
        { Lin.proc = i mod 3; kind = `Write; value = Some (string_of_int i);
          invoked = t; returned = Some (t + 25) }
      else
        { Lin.proc = i mod 3; kind = `Read;
          value = Some (string_of_int (i - 1)); invoked = t;
          returned = Some (t + 25) })

let lin_check ~n () =
  cost_outside (fun () ->
      for _ = 1 to n do
        match Lin.check lin_history with
        | `Ok -> ()
        | `Violation m ->
          fail "Lin.check rejected a linearizable history: %s" m
      done)

(* Repeat a run that times several named loops; the figure of a loop by
   name. *)
let loops ~n runner =
  let runs = List.init reps (fun _ -> runner ()) in
  fun name -> ub_of ~n (List.map (List.assoc name) runs)

let ns_words prefix u = [ (prefix ^ "_ns", u.ns); (prefix ^ "_words", u.words) ]

let all () =
  let client = loops ~n:300 (client_ops ~n:300) in
  let vfs = loops ~n:3000 (msgvfs_ops ~n:3000) in
  let net = measure ~n:2000 net_call in
  List.concat
    [ ns_words "core.ub_timer" (measure ~n:50_000 timer);
      ns_words "core.ub_spawn" (measure ~n:20_000 spawn);
      ns_words "core.ub_run" (ub_repeat ~reps ~n:2000 (empty_runs ~n:2000));
      ns_words "chan.ub_rendezvous" (measure ~n:50_000 rendezvous);
      ns_words "chan.ub_buffered" (measure ~n:50_000 buffered);
      ns_words "chan.ub_choose" (measure ~n:50_000 choose);
      ns_words "svc.ub_call" (measure ~n:20_000 svc_call);
      ns_words "net.ub_call" net;
      [ ("net.ub_call_vcycles", net.vcycles);
        ("client.ub_put_ns", (client "put").ns);
        ("client.ub_put_vcycles", (client "put").vcycles);
        ("client.ub_get_ns", (client "get").ns);
        ("client.ub_get_vcycles", (client "get").vcycles);
        ("msgvfs.ub_stat_ns", (vfs "stat").ns);
        ("msgvfs.ub_read_ns", (vfs "read").ns);
        ("lin.ub_check_ns", (ub_repeat ~reps ~n:5000 (lin_check ~n:5000)).ns) ] ]
