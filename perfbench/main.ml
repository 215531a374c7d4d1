(* The Chorus benchmark: one workload per process, on one domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs [rounds] identical rounds (each a fresh boot, preload
   and timed phase of about S/rounds host seconds on the reference
   machine) and prints the end-to-end metrics.  The two host timings
   come from reference-scaled units of every round (see Harness);
   every other metric is exact, and every round must produce the same
   virtual outputs.

   --trace 1 runs one untraced round, the same round again with a
   metrics registry installed and a trace ring in the run's config, the
   chaos probe and the per-layer microbenchmarks, and prints the
   per-layer metrics.  The traced round's virtual outputs must equal
   the untraced round's.

   Every metric is printed as "metric NAME VALUE UNIT"; the last line
   is one JSON object with the keys correct, attempted, failed and
   metrics.  The exit code is 1 when an output check fails. *)

open Harness
module Trace = Chorus.Trace
module Metrics = Chorus_obs.Metrics
module Profile = Chorus_obs.Profile

type workload = { name : string; round : seed:int -> secs:float -> round }

let workloads =
  [ { name = "kv-read"; round = Kv.round Kv.Read };
    { name = "kv-write"; round = Kv.round Kv.Write };
    { name = "fs-kernel"; round = Fs.round } ]

let rounds = 3
let ring_capacity = 1 lsl 18

let e2e_units =
  [ ("ops_per_host_s", "ops/s"); ("setup_s", "s"); ("peak_heap_mb", "MB");
    ("alloc_words_per_op", "words"); ("op_p50_vcycles", "vcycles");
    ("op_p99_vcycles", "vcycles"); ("vops_per_mcycle", "ops/Mcycle");
    ("ok_ratio", "ratio") ]

(* Every per-layer metric, in print order, with its unit.  A workload
   that does not exercise a layer reports 0 for its counts. *)
let layer_units =
  let per_op = "count/op" in
  [ ("core.events_per_op", per_op); ("core.segments_per_op", per_op);
    ("core.wakes_per_op", per_op); ("core.spawns_per_op", per_op);
    ("core.host_ns_per_event", "ns");
    ("core.ub_timer_ns", "ns"); ("core.ub_timer_words", "words");
    ("core.ub_spawn_ns", "ns"); ("core.ub_spawn_words", "words");
    ("core.ub_run_ns", "ns"); ("core.ub_run_words", "words");
    ("chan.msgs_per_op", per_op); ("chan.remote_msgs_per_op", per_op);
    ("chan.words_copied_per_op", per_op); ("chan.hops_per_op", per_op);
    ("chan.ub_rendezvous_ns", "ns"); ("chan.ub_rendezvous_words", "words");
    ("chan.ub_buffered_ns", "ns"); ("chan.ub_buffered_words", "words");
    ("chan.ub_choose_ns", "ns"); ("chan.ub_choose_words", "words");
    ("svc.ub_call_ns", "ns"); ("svc.ub_call_words", "words");
    ("svc.service_p50_vcycles", "vcycles");
    ("svc.service_p99_vcycles", "vcycles"); ("svc.queue_hwm_max", "count");
    ("svc.refused", "count");
    ("net.frames_per_op", per_op); ("net.frames_dropped", "count");
    ("net.retransmits_per_op", per_op);
    ("net.ub_call_ns", "ns"); ("net.ub_call_words", "words");
    ("net.ub_call_vcycles", "vcycles");
    ("raft.appends_per_write", "count/write");
    ("raft.entries_per_append", "count"); ("raft.group_commits", "count");
    ("raft.leased_read_ratio", "ratio"); ("raft.lease_denied", "count");
    ("raft.elections", "count");
    ("client.ub_put_ns", "ns"); ("client.ub_put_vcycles", "vcycles");
    ("client.ub_get_ns", "ns"); ("client.ub_get_vcycles", "vcycles");
    ("fs.read_p50_vcycles", "vcycles"); ("fs.read_p99_vcycles", "vcycles");
    ("fs.write_p50_vcycles", "vcycles"); ("fs.write_p99_vcycles", "vcycles");
    ("fs.stat_p50_vcycles", "vcycles"); ("fs.stat_p99_vcycles", "vcycles");
    ("fs.create_p50_vcycles", "vcycles");
    ("fs.create_p99_vcycles", "vcycles");
    ("bcache.gets_per_op", per_op); ("bcache.hit_ratio", "ratio");
    ("blockdev.ios_per_op", per_op);
    ("msgvfs.ub_stat_ns", "ns"); ("msgvfs.ub_read_ns", "ns");
    ("loadgen.get_p50_vcycles", "vcycles");
    ("loadgen.get_p99_vcycles", "vcycles");
    ("loadgen.put_p50_vcycles", "vcycles");
    ("loadgen.put_p99_vcycles", "vcycles"); ("loadgen.ops", "count");
    ("chaos.disk.host_ms_per_run", "ms");
    ("chaos.projfs.host_ms_per_run", "ms");
    ("chaos.kv.host_ms_per_run", "ms");
    ("chaos.kv_lease.host_ms_per_run", "ms");
    ("chaos.gray.host_ms_per_run", "ms");
    ("chaos.faults_per_run", "count/run");
    ("chaos.history_ops_per_run", "count/run");
    ("chaos.violations", "count"); ("lin.ub_check_ns", "ns");
    ("gc.minor_collections_per_kop", "count/kop");
    ("gc.promoted_words_per_op", "words");
    ("gc.major_collections", "count");
    ("obs.traced_slowdown", "ratio"); ("obs.records_per_op", per_op);
    ("obs.records_dropped", "count");
    ("profile.busy_share.client", "ratio"); ("profile.busy_share.net", "ratio");
    ("profile.busy_share.raft", "ratio"); ("profile.busy_share.svc", "ratio");
    ("profile.busy_share.kernel", "ratio") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: kv-read kv-write fs-kernel";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | Some w when !seconds > 0.0 && (!trace = 0 || !trace = 1) ->
    (w, !seed, !seconds, !trace = 1)
  | _ -> usage ()

let fresh_round w ~seed ~secs =
  Gc.compact ();
  w.round ~seed ~secs

(* Fiber-label classes for the traced run's busy-cycle shares.  NIC
   drivers and frame demultiplexers are the net layer; Raft timers,
   replicators, batchers and proposal workers the raft layer; load
   generators and their pipeline fibers the clients; vnodes, caches,
   drivers and the other kernel services the kernel.  Everything else
   (the cluster's kv service loops, node anchors, supervisors) counts
   as the service plane. *)
let label_class label =
  let n = String.length label in
  let starts p =
    n >= String.length p && String.sub label 0 (String.length p) = p
  in
  let ends p =
    let k = String.length p in
    n >= k && String.sub label (n - k) k = p
  in
  let contains p =
    let k = String.length p in
    let rec at i = i + k <= n && (String.sub label i k = p || at (i + 1)) in
    at 0
  in
  if ends "-driver" || List.exists starts [ "demux-"; "reply-demux-"; "wire";
                                           "in-flight" ]
  then "net"
  else if List.exists starts [ "raft-"; "prop-" ] then "raft"
  else if List.exists starts [ "zipf-client"; "pipe-"; "preload"; "readback";
                               "client-"; "chaos-client"; "main" ]
  then "client"
  else if contains "vnode"
          || List.exists starts [ "bcache"; "blockdev"; "cg-"; "console";
                                  "notify"; "proc-table"; "syscall-"; "vm-";
                                  "sensors"; "frame-alloc"; "store";
                                  "hydrate"; "prefetch"; "projfs";
                                  "provider"; "mount" ]
  then "kernel"
  else "svc"

let busy_shares records =
  let p = Profile.of_records records in
  let total = ref 0 and by = Hashtbl.create 8 in
  List.iter
    (fun (f : Profile.fiber_stats) ->
      let c = label_class f.label in
      total := !total + f.busy;
      Hashtbl.replace by c
        (f.busy + Option.value ~default:0 (Hashtbl.find_opt by c)))
    p.Profile.fibers;
  List.map
    (fun c ->
      ( "profile.busy_share." ^ c,
        per (Option.value ~default:0 (Hashtbl.find_opt by c)) !total ))
    [ "client"; "net"; "raft"; "svc"; "kernel" ]

(* The service plane's rows from the traced run's metrics registry: the
   busiest endpoint's service-time percentiles, the deepest queue and
   every refused request.  Raft's two doorbells (cluster/kick and
   cluster/batch) are capacity-1 [`Reject] inboxes that coalesce
   wake-ups by design, so their rejections are not refused work. *)
let svc_rows snapshot =
  let ends_with suffix s =
    let n = String.length s and k = String.length suffix in
    n >= k && String.sub s (n - k) k = suffix
  in
  let busiest = ref (0, 0, 0) and hwm = ref 0 and refused = ref 0 in
  let doorbell sub name =
    sub = "cluster" && (ends_with "kick.rejected" name
                        || ends_with "batch.rejected" name)
  in
  List.iter
    (fun ((sub, name), v) ->
      match (v : Metrics.value) with
      | Histo h when ends_with "service_time" name ->
        let c, _, _ = !busiest in
        if h.count > c then busiest := (h.count, h.p50, h.p99)
      | Gauge g when ends_with "queue_hwm" name -> hwm := max !hwm g.peak
      | Counter n
        when (ends_with "rejected" name || ends_with "shed" name
              || ends_with "expired" name)
             && not (doorbell sub name) ->
        refused := !refused + n
      | _ -> ())
    snapshot;
  let _, p50, p99 = !busiest in
  [ ("svc.service_p50_vcycles", float_of_int p50);
    ("svc.service_p99_vcycles", float_of_int p99);
    ("svc.queue_hwm_max", float_of_int !hwm);
    ("svc.refused", float_of_int !refused) ]

let print_metric name value unit =
  Printf.printf "metric %-34s %.17g %s\n" name value unit

let json_metrics values units =
  String.concat ", "
    (List.map
       (fun (name, unit) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (List.assoc name values) unit)
       units)

let finish ~errors ~attempted ~failed values units =
  List.iter (fun (name, unit) -> print_metric name (List.assoc name values) unit)
    units;
  List.iter (fun e -> Printf.printf "error %s\n" e) errors;
  let correct = errors = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics values units);
  exit (if correct then 0 else 1)

let round_errors name r =
  List.map (fun e -> Printf.sprintf "%s: %s" name e) r.errors

(* Host seconds of one round's timed phase, at nominal speed. *)
let timed_s r = Array.fold_left ( +. ) 0.0 r.host.timed_scaled

let untraced w ~seed ~secs =
  let rs = List.init rounds (fun _ -> fresh_round w ~seed ~secs) in
  let first = List.hd rs in
  let errors =
    List.concat_map (round_errors "round") rs
    @ (if List.for_all (fun r -> digest r = digest first) rs then []
       else [ "rounds of one seed gave different virtual outputs" ])
  in
  List.iteri
    (fun i r ->
      Printf.printf
        "round %d setup_s %.4f (raw %.4f) timed_s %.4f (raw %.4f) ops %d \
         minor_words %.0f digest %s\n"
        (i + 1) r.host.setup_scaled r.host.setup_raw
        (timed_s r) r.host.timed_raw r.ops r.timed.minor_words (digest r))
    rs;
  Printf.printf "samples op_p50_vcycles %d op_p99_vcycles %d\n" first.samples
    first.samples;
  Printf.printf "virtual_digest %s\n" (digest first);
  let steady = steady_timed_s rs in
  Printf.printf "steady timed_s %.4f over %d units\n" steady
    (Array.length first.host.timed_scaled);
  Printf.printf "raw ops_per_host_s %.6g setup_s %.6g (medians over rounds)\n"
    (median (List.map (fun r -> float_of_int r.ops /. r.host.timed_raw) rs))
    (median (List.map (fun r -> r.host.setup_raw) rs));
  let values =
    [ ("ops_per_host_s", float_of_int first.ops /. steady);
      ("setup_s", median (List.map (fun r -> r.host.setup_scaled) rs));
      ("peak_heap_mb",
       float_of_int (Gc.quick_stat ()).top_heap_words
       *. float_of_int (Sys.word_size / 8) /. 1048576.0);
      ("alloc_words_per_op", alloc_words_per_op first);
      ("op_p50_vcycles", float_of_int first.p50);
      ("op_p99_vcycles", float_of_int first.p99);
      ("vops_per_mcycle", first.vops_per_mcycle);
      ("ok_ratio", first.ok_ratio) ]
  in
  finish ~errors
    ~attempted:(List.fold_left (fun n r -> n + r.attempted) 0 rs)
    ~failed:(List.fold_left (fun n r -> n + r.failed) 0 rs)
    values e2e_units

let traced w ~seed ~secs =
  let plain = span "round.untraced" (fun () -> fresh_round w ~seed ~secs) in
  let sink, retained, dropped = Trace.ring ~capacity:ring_capacity () in
  let registry = Metrics.create () in
  Metrics.install registry;
  trace_sink :=
    Some
      (fun r ->
        if !in_timed_phase then begin
          incr trace_records;
          sink r
        end);
  let t = span "round.traced" (fun () -> fresh_round w ~seed ~secs) in
  trace_sink := None;
  Metrics.uninstall ();
  let chaos, chaos_errors = span "chaos.probe" (fun () -> Chaos_probe.run ~seed) in
  let ubs = span "ub" Ub.all in
  let errors =
    round_errors "untraced round" plain
    @ round_errors "traced round" t
    @ (if virtual_outputs t = virtual_outputs plain then []
       else [ "the traced round's virtual outputs differ from the untraced round's" ])
    @ chaos_errors
  in
  Printf.printf "virtual_digest %s traced %s\n" (digest plain) (digest t);
  let records = retained () in
  let values =
    plain.layers @ gc_layers plain @ chaos @ ubs
    @ svc_rows (Metrics.snapshot registry)
    @ busy_shares records
    @ [ ("core.host_ns_per_event",
         1e9 *. timed_s plain /. float_of_int (max 1 plain.timed.work.events));
        ("obs.traced_slowdown", timed_s t /. timed_s plain);
        ("obs.records_per_op", per t.timed.records t.ops);
        ("obs.records_dropped", float_of_int (dropped ())) ]
  in
  let values =
    List.map
      (fun (name, _) ->
        (name, Option.value ~default:0.0 (List.assoc_opt name values)))
      layer_units
  in
  List.iter
    (fun (name, start, dur) ->
      Printf.printf "span %-16s start_s %.4f dur_s %.4f\n" name start dur)
    (List.rev !spans);
  finish ~errors ~attempted:plain.attempted ~failed:plain.failed values
    layer_units

let () =
  let w, seed, seconds, trace = parse_args () in
  let secs = seconds /. float_of_int rounds in
  try if trace then traced w ~seed ~secs else untraced w ~seed ~secs with
  | Failure m | Invalid_argument m ->
    Printf.printf "error %s\n" m;
    Printf.printf
      "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n%!";
    exit 1
