(* E20 — the chip as a distributed system, taken literally (Sections 1
   and 5).

   The paper argues a multicore OS "is structurally more similar to a
   client/server network application" and that, following Erlang, the
   goal should be "aiming for not failing" rather than never crashing.
   This experiment composes both: a sharded, replicated KV cluster
   (lib/cluster) runs over a lossy fabric while a fault injector
   crashes whole nodes; a smart client keeps issuing writes and reads
   through elections and node restarts.

   Table 1 measures end-to-end availability under combined frame loss
   and node crashes, with the supervisor healing crashed nodes.
   Table 2 measures the data-plane failover window: cycles from a
   leader kill until its shard answers operations again, plus steady
   throughput, as the replica group widens (N = 1, 3, 5). *)

open Exp_common
module Fiber = Chorus.Fiber
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Faults = Chorus_workload.Faults
module Shardmap = Chorus_cluster.Shardmap
module Cluster = Chorus_cluster.Cluster
module Client = Chorus_cluster.Client

let mk ~loss ~seed ~nnodes ~replication net_seed =
  let net = Fabric.create ~latency:5_000 ~loss ~seed:net_seed () in
  let c =
    Cluster.create ~nshards:8 ~replication ~seed ~nnodes net
  in
  Cluster.start c;
  let cstack = Stack.create net (Fabric.attach net ~label:"client" ()) in
  let client = Client.create ~seed ~bootstrap:(Cluster.addrs c) cstack in
  (c, client)

(* The rolling node-crash plan, counted from now: the [n]-th of
   [count] exponentially spaced crashes (1-based) hits address
   [n mod nnodes] of [Cluster.addrs], if that node is up.  E20 and
   [chorus_sim cluster --crashes] both use it. *)
let crash_plan c ~seed ~mean_gap ~count =
  let addrs = Array.of_list (Cluster.addrs c) in
  List.mapi
    (fun i at ->
      ( at,
        fun () ->
          let a = addrs.((i + 1) mod Array.length addrs) in
          if Cluster.node_up c a then Cluster.crash_node c a ))
    (Faults.exponential_times ~seed ~mean_gap ~count ~start:(Fiber.now ()))

(* One posture of the availability matrix: [ops] writes with rolling
   node crashes, then every acked key is read back and checked. *)
let run_posture ~quick ~seed ~loss ~crash =
  let ops = pick ~quick 120 400 in
  let (acked, lost, bad_reads, crashes, restarts, op_retries), _stats =
    run ~seed ~cores:32 (fun () ->
        let c, client =
          mk ~loss ~seed ~nnodes:5 ~replication:3 (seed + 1)
        in
        Fiber.sleep 1_000_000;
        let wait_crashes =
          Faults.start
            (crash_plan c ~seed:(seed + 7)
               ~mean_gap:(pick ~quick 400_000 600_000)
               ~count:(if crash then pick ~quick 4 10 else 0))
        in
        let acked = ref [] and lost = ref 0 in
        for i = 0 to ops - 1 do
          let k = Printf.sprintf "key-%04d" i in
          match Client.put client k (string_of_int i) with
          | `Ok -> acked := i :: !acked
          | `Net_fail -> incr lost
        done;
        wait_crashes ();
        Fiber.sleep 1_000_000;
        let bad_reads = ref 0 in
        List.iter
          (fun i ->
            let k = Printf.sprintf "key-%04d" i in
            match Client.get client k with
            | `Found v when v = string_of_int i -> ()
            | `Found _ | `Miss | `Net_fail -> incr bad_reads)
          !acked;
        let r =
          ( List.length !acked,
            !lost,
            !bad_reads,
            Cluster.node_crashes c,
            Cluster.restarts c,
            Client.retries client )
        in
        Cluster.stop c;
        r)
  in
  (acked, lost, bad_reads, crashes, restarts, op_retries)

let nines availability =
  if availability >= 1.0 then 9.9 else -.log10 (1.0 -. availability)

(* Failover window: crash the shard-0 leader and poll until the shard
   answers again; also measure steady put throughput for the group
   size. *)
let run_failover ~quick ~seed ~nnodes =
  let replication = min 3 nnodes in
  let ops = pick ~quick 60 200 in
  let (window, tput_ops, acked), stats =
    run ~seed ~cores:32 (fun () ->
        let c, client = mk ~loss:0.0 ~seed ~nnodes ~replication (seed + 3) in
        Fiber.sleep 1_000_000;
        (* steady-state throughput *)
        let t0 = Fiber.now () in
        let acked = ref 0 in
        for i = 0 to ops - 1 do
          match Client.put client (Printf.sprintf "w%d" i) "x" with
          | `Ok -> incr acked
          | `Net_fail -> ()
        done;
        let t1 = Fiber.now () in
        let window =
          if nnodes < 3 then 0  (* no failover possible below quorum 2 *)
          else begin
            let victim = Cluster.leader_of c 0 in
            Cluster.crash_node c victim;
            let crash_at = Fiber.now () in
            (* the shard is back once a put on it is acked again; keys
               are picked to land on shard 0 *)
            let key =
              let rec find i =
                if Shardmap.shard_of_key (Cluster.map c)
                     (Printf.sprintf "probe-%d" i)
                   = 0
                then Printf.sprintf "probe-%d" i
                else find (i + 1)
              in
              find 0
            in
            let rec probe () =
              match Client.put client key "back" with
              | `Ok -> Fiber.now () - crash_at
              | `Net_fail -> probe ()
            in
            probe ()
          end
        in
        let r = (window, t1 - t0, !acked) in
        Cluster.stop c;
        r)
  in
  ignore stats;
  (window, tput_ops, acked, ops)

let run ~quick ~seed =
  let avail =
    Tablefmt.create
      ~title:
        "E20: cluster availability under frame loss + node crashes (5 \
         nodes, 8 shards, 3 replicas)"
      ~columns:
        [ ("loss", Tablefmt.Right);
          ("crashes", Tablefmt.Right);
          ("acked", Tablefmt.Right);
          ("unavail", Tablefmt.Right);
          ("availability", Tablefmt.Right);
          ("nines", Tablefmt.Right);
          ("lost acked writes", Tablefmt.Right);
          ("restarts", Tablefmt.Right);
          ("client retries", Tablefmt.Right) ]
  in
  List.iter
    (fun (loss, crash) ->
      let acked, lost, bad, crashes, restarts, retries =
        run_posture ~quick ~seed ~loss ~crash
      in
      let avail_f = float_of_int acked /. float_of_int (acked + lost) in
      Tablefmt.add_row avail
        [ Printf.sprintf "%.0f%%" (100.0 *. loss);
          string_of_int crashes;
          string_of_int acked;
          string_of_int lost;
          Printf.sprintf "%.5f" avail_f;
          Tablefmt.cell_float (nines avail_f);
          string_of_int bad;
          string_of_int restarts;
          string_of_int retries ])
    [ (0.0, false); (0.01, false); (0.01, true); (0.03, true) ];
  let failover =
    Tablefmt.create
      ~title:"E20: failover window and throughput vs replica-group width"
      ~columns:
        [ ("nodes", Tablefmt.Right);
          ("puts acked", Tablefmt.Right);
          ("cycles/put", Tablefmt.Right);
          ("failover window (cycles)", Tablefmt.Right) ]
  in
  List.iter
    (fun nnodes ->
      let window, tput_cycles, acked, ops = run_failover ~quick ~seed ~nnodes in
      Tablefmt.add_row failover
        [ string_of_int nnodes;
          Printf.sprintf "%d/%d" acked ops;
          string_of_int (tput_cycles / max 1 ops);
          (if window = 0 then "n/a (no quorum peer)"
           else string_of_int window) ])
    [ 1; 3; 5 ];
  [ avail; failover ]
