(* kv-read and kv-write: the replicated cluster in E24's best posture
   (group commit + leader leases), 3 nodes x 4 shards x 3 replicas on a
   64-core mesh over a zero-loss 5k-cycle fabric, driven open-loop by
   [Chorus_workload.Zipf] (Zipf theta 0.99 over 10^6 keys, 48 clients
   x depth 8, 16-byte values).

   Set-up boots the cluster, lets elections settle and preloads the
   Zipf-hottest [preload_keys] keys through pipelined clients.  The
   timed phase is one [Zipf.run].  Afterwards every preloaded key is
   read back and must hold its preload value or the generator's put
   value. *)

open Harness
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Runtime = Chorus.Runtime
module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Fabric = Chorus_net.Fabric
module Stack = Chorus_net.Stack
module Cluster = Chorus_cluster.Cluster
module Raft = Chorus_cluster.Raft
module Client = Chorus_cluster.Client
module Zipfload = Chorus_workload.Zipf

type mode = Read | Write

let nshards = 4
let replicas = 3
let cores = 64
let preload_keys = 10_000
let value_bytes = 16
let loaders = 16

(* Offered load, ops per million cycles.  kv-read sits below the read
   knee (E24: no failures, flat p50 at 1200); kv-write just below the
   write knee, where group commit batches several entries per
   append. *)
let offered = function Read -> 1200 | Write -> 1600

(* Host cost per op on the reference machine (a 2-vCPU VM), used only
   to turn a host-time budget into a fixed, seed-independent op count. *)
let ref_ops_per_host_s = function Read -> 10_000.0 | Write -> 7_500.0

let key rank = Printf.sprintf "k%07d" rank
let preload_value rank = Printf.sprintf "p%015d" rank
let put_value = String.make value_bytes 'v'

let raft_config ~seed =
  { (Raft.default_config ~seed) with
    batch_window = 10_000;
    max_append = 128;
    lease = true }

(* Run [ops] through [loaders] pipelined clients (depth 8 each), op [i]
   on loader [i mod loaders]; returns each op's result. *)
let pipelined net ~bootstrap ~seed ~label ops =
  let n = Array.length ops in
  let results = Array.make n `Net_fail in
  let done_ch = Chan.buffered loaders in
  for l = 0 to loaders - 1 do
    let name = Printf.sprintf "%s%d" label l in
    ignore
      (Fiber.spawn ~label:name (fun () ->
           let stack = Stack.create net (Fabric.attach net ~label:name ()) in
           let client =
             Client.create ~seed:(seed + (104_729 * (l + 1))) ~bootstrap stack
           in
           let pipe = Client.pipeline ~depth:8 client in
           let slot = Hashtbl.create 1024 in
           let mine = ref 0 in
           let i = ref l in
           while !i < n do
             Hashtbl.replace slot (Client.submit pipe ops.(!i)) !i;
             incr mine;
             i := !i + loaders
           done;
           let compl = Client.completions pipe in
           for _ = 1 to !mine do
             let c = Chan.recv compl in
             results.(Hashtbl.find slot c.Client.seq) <- c.Client.result
           done;
           Chan.send done_ch ()))
  done;
  for _ = 1 to loaders do
    Chan.recv done_ch
  done;
  results

type raft_totals = {
  appends : int;
  group_commits : int;
  leased : int;
  denied : int;
  follower_log : int;  (** log entries held by non-leader replicas *)
}

let raft_totals c =
  let z = { appends = 0; group_commits = 0; leased = 0; denied = 0;
            follower_log = 0 } in
  List.fold_left
    (fun acc node ->
      List.fold_left
        (fun acc shard ->
          match Cluster.raft_of c ~node ~shard with
          | None -> acc
          | Some r ->
            { appends = acc.appends + Raft.appends_sent r;
              group_commits = acc.group_commits + Raft.group_commits r;
              leased = acc.leased + Raft.leased_reads r;
              denied = acc.denied + Raft.lease_denied r;
              follower_log =
                (acc.follower_log
                + if Raft.role r = Raft.Leader then 0 else Raft.log_length r) })
        acc (List.init nshards Fun.id))
    z (Cluster.addrs c)

let check_readback errors results =
  Array.iteri
    (fun rank res ->
      let ok =
        match res with
        | `Found v -> v = preload_value rank || v = put_value
        | `Ok | `Miss | `Net_fail -> false
      in
      if (not ok) && List.length !errors < 5 then
        errors :=
          Printf.sprintf "key %s read back wrong after the timed phase"
            (key rank)
          :: !errors)
    results

(* Virtual issue window giving [secs] host seconds of timed work on the
   reference machine. *)
let duration mode ~secs =
  let ops = secs *. ref_ops_per_host_s mode in
  max 200_000 (int_of_float (ops *. 1e6 /. float_of_int (offered mode)))

let round mode ~seed ~secs =
  let t0 = Unix.gettimeofday () in
  let wcfg =
    { (Zipfload.default_config ~seed:(seed + 11)) with
      Zipfload.nclients = 48;
      depth = 8;
      offered = offered mode;
      duration = duration mode ~secs;
      read_fraction = (match mode with Read -> 0.9 | Write -> 0.0);
      value_bytes }
  in
  let config =
    Runtime.config ~policy:(Policy.round_robin ()) ~seed
      (Machine.mesh ~cores)
  in
  let r, host =
    run_round ~t0 config (fun () ->
        let net, c =
          span "kv.boot" (fun () ->
              let net =
                Fabric.create ~latency:5_000 ~loss:0.0 ~seed:(seed + 1) ()
              in
              let c =
                Cluster.create ~raft:(raft_config ~seed) ~nshards
                  ~replication:replicas ~seed ~nnodes:replicas net
              in
              Cluster.start c;
              Fiber.sleep 1_000_000;
              (net, c))
        in
        let bootstrap = Cluster.addrs c in
        let errors = ref [] in
        let loaded =
          span "kv.preload" (fun () ->
              pipelined net ~bootstrap ~seed ~label:"preload"
                (Array.init preload_keys (fun r ->
                     Client.Op_put (key r, preload_value r))))
        in
        if Array.exists (fun res -> res <> `Ok) loaded then
          errors := "preload put failed" :: !errors;
        let frames0 = Fabric.frames_sent net
        and dropped0 = Fabric.frames_dropped net
        and raft0 = raft_totals c in
        let timed_phase, res =
          span "kv.timed" (fun () ->
              timed (fun () -> Zipfload.run wcfg ~fabric:net ~bootstrap))
        in
        let raft1 = raft_totals c in
        let frames = Fabric.frames_sent net - frames0
        and dropped = Fabric.frames_dropped net - dropped0 in
        span "kv.readback" (fun () ->
            check_readback errors
              (pipelined net ~bootstrap ~seed ~label:"readback"
                 (Array.init preload_keys (fun r -> Client.Op_get (key r)))));
        let elections = Cluster.elections_started c in
        Cluster.stop c;
        let ops = res.Zipfload.completed in
        let d f = f raft1 - f raft0 in
        let appends = d (fun t -> t.appends) in
        let layers =
          [ ("net.frames_per_op", per frames ops);
            ("net.frames_dropped", float_of_int dropped);
            ("net.retransmits_per_op", per timed_phase.work.retries ops);
            ("raft.appends_per_write", per appends res.Zipfload.writes);
            ("raft.entries_per_append",
             per (d (fun t -> t.follower_log)) appends);
            ("raft.group_commits", float_of_int (d (fun t -> t.group_commits)));
            ("raft.leased_read_ratio",
             per (d (fun t -> t.leased)) res.Zipfload.reads);
            ("raft.lease_denied", float_of_int (d (fun t -> t.denied)));
            ("raft.elections", float_of_int elections);
            ("loadgen.get_p50_vcycles", hist_p res.Zipfload.lat_get 50.0);
            ("loadgen.get_p99_vcycles", hist_p res.Zipfload.lat_get 99.0);
            ("loadgen.put_p50_vcycles", hist_p res.Zipfload.lat_put 50.0);
            ("loadgen.put_p99_vcycles", hist_p res.Zipfload.lat_put 99.0);
            ("loadgen.ops", float_of_int ops) ]
        in
        { host = no_host_time;
          timed = timed_phase;
          ops;
          attempted = res.Zipfload.submitted;
          failed = res.Zipfload.failed;
          p50 = res.Zipfload.p50;
          p99 = res.Zipfload.p99;
          samples = Histogram.count res.Zipfload.latency;
          vops_per_mcycle = res.Zipfload.throughput;
          ok_ratio =
            per (res.Zipfload.completed - res.Zipfload.failed)
              res.Zipfload.submitted;
          layers;
          errors = List.rev !errors })
  in
  { r with layers = core_layers r @ r.layers; host }
