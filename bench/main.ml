(* The full benchmark harness.

   Part 1 regenerates every "table/figure" of the evaluation (the
   paper is a position paper with no numbered exhibits; DESIGN.md S3
   maps each experiment id to the claim it tests).  Experiments run in
   quick mode here so the whole suite completes in a couple of minutes;
   `bin/chorus_sim run --full` produces the big sweeps.

   The remaining parts write the deterministic BENCH_<name>.json files
   listed at the bottom: virtual-cycle results that are a pure
   function of the seed, plus host_* fields that scripts/bench_guard
   strips before comparing against the committed copies.

   Usage: main.exe [--tables-only | --json-only | --<name>-only] *)

module Experiments = Chorus_experiments.Experiments

(* ------------------------------------------------------------------ *)
(* Part 1: experiment tables                                           *)

let run_tables () =
  print_endline "=====================================================";
  print_endline " Chorus evaluation: all experiments (quick mode)";
  print_endline "=====================================================\n";
  List.iter (Experiments.run_and_print ~quick:true ~seed:42) Experiments.all

(* write one BENCH_<name>.json *)
let save file b =
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

(* ------------------------------------------------------------------ *)
(* Part 2: cluster macro-benchmark                                     *)

(* Steady-state put cost and the data-plane failover window as the
   replica group widens, plus the E24 hot-path curves (throughput/p99
   vs offered load per posture, and the batched-vs-plain write path at
   saturation), in virtual cycles (so the numbers are exact and
   reproducible, not host-dependent).  Reuses the E20/E24 drivers. *)
let write_cluster_json file =
  let module E20 = Chorus_experiments.E20_cluster in
  let module E24 = Chorus_experiments.E24_hotpath in
  print_endline "\n=====================================================";
  print_endline " Cluster: throughput and failover window (virtual)";
  print_endline "=====================================================\n";
  let rows =
    List.map
      (fun nnodes ->
        let window, tput_cycles, acked, ops =
          E20.run_failover ~quick:true ~seed:42 ~nnodes
        in
        let per_put = tput_cycles / max 1 ops in
        Printf.printf
          "N=%d  acked %d/%d  cycles/put %d  failover window %s\n" nnodes
          acked ops per_put
          (if window = 0 then "n/a" else string_of_int window);
        (nnodes, window, per_put, acked, ops))
      [ 1; 3; 5 ]
  in
  print_endline "\nhot path: offered-load sweep (3 replicas, 90% reads)";
  let sweep =
    List.concat_map
      (fun offered ->
        List.map
          (fun (batched, leased) ->
            let p =
              E24.run_point ~quick:true ~seed:42 ~replicas:3 ~batched
                ~leased ~offered ~read_fraction:0.9 ()
            in
            Printf.printf
              "  offered %4d  batched=%b leased=%b  tput %.0f  p99 %d\n"
              offered batched leased p.E24.throughput p.E24.p99;
            p)
          [ (false, false); (true, false); (false, true); (true, true) ])
      [ 300; 1200 ]
  in
  print_endline "\nhot path: write-only at saturation (slow fabric)";
  let writes =
    List.concat_map
      (fun replicas ->
        List.map
          (fun batched ->
            let p =
              E24.run_point ~quick:true ~seed:42 ~replicas ~batched
                ~leased:false ~offered:16_000 ~read_fraction:0.0
                ~nclients:24 ~depth:16 ~duration:600_000
                ~call_timeout:800_000 ~propose_timeout:600_000
                ~fabric_latency:20_000 ()
            in
            Printf.printf "  replicas %d  batched=%b  cycles/put %d\n"
              replicas batched p.E24.cycles_per_op;
            p)
          [ false; true ])
      [ 1; 3; 5 ]
  in
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"chorus-bench-cluster-v2\",\n";
  Buffer.add_string b "  \"seed\": 42,\n";
  Buffer.add_string b "  \"replica_groups\": [";
  List.iteri
    (fun i (n, window, per_put, acked, ops) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"nodes\": %d, \"puts_acked\": %d, \"puts_issued\": %d, \
            \"cycles_per_put\": %d, \"failover_window_cycles\": %s }"
           n acked ops per_put
           (if window = 0 then "null" else string_of_int window)))
    rows;
  Buffer.add_string b "\n  ],\n";
  let point_json (p : E24.point) =
    Printf.sprintf
      "\n    { \"offered_per_mcycle\": %d, \"replicas\": %d, \
       \"batched\": %b, \"leased\": %b, \"completed\": %d, \
       \"failed\": %d, \"throughput_per_mcycle\": %.1f, \
       \"cycles_per_op\": %d, \"p50_cycles\": %d, \"p99_cycles\": %d, \
       \"put_p99_cycles\": %d, \"appends\": %d, \"group_commits\": %d, \
       \"leased_reads\": %d }"
      p.E24.offered p.E24.replicas p.E24.batched p.E24.leased
      p.E24.completed p.E24.failed p.E24.throughput p.E24.cycles_per_op
      p.E24.p50 p.E24.p99 p.E24.put_p99 p.E24.appends p.E24.group_commits
      p.E24.leased_reads
  in
  let add_points name points =
    Buffer.add_string b (Printf.sprintf "  \"%s\": [" name);
    List.iteri
      (fun i p ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (point_json p))
      points;
    Buffer.add_string b "\n  ]"
  in
  add_points "hot_path_sweep" sweep;
  Buffer.add_string b ",\n";
  add_points "write_path_saturation" writes;
  Buffer.add_string b "\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Part 3: service-plane overload macro-benchmark                      *)

(* Goodput and tail latency for each overload policy as offered load
   sweeps past the service rate, in virtual cycles.  Reuses the E21
   driver. *)
let write_overload_json file =
  let module E21 = Chorus_experiments.E21_overload in
  print_endline "\n=====================================================";
  print_endline " Service plane: overload policies (virtual)";
  print_endline "=====================================================\n";
  let rows =
    List.concat_map
      (fun policy ->
        List.map
          (fun load_pct ->
            let s = E21.measure ~quick:true ~seed:42 ~policy ~load_pct in
            Printf.printf
              "%-12s %3d%%  completed %d/%d  busy %d  p99 %d  \
               goodput/Mcyc %.1f\n"
              s.E21.policy_name load_pct s.E21.completed s.E21.sent
              s.E21.busy s.E21.p99 s.E21.goodput;
            s)
          [ 50; 100; 200 ])
      [ `Block; `Reject; `Shed_oldest ]
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"chorus-bench-overload-v1\",\n";
  Buffer.add_string b "  \"seed\": 42,\n";
  Buffer.add_string b "  \"postures\": [";
  List.iteri
    (fun i (s : Chorus_experiments.E21_overload.sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"policy\": \"%s\", \"load_pct\": %d, \"sent\": %d, \
            \"completed\": %d, \"busy\": %d, \"rejected\": %d, \
            \"shed\": %d, \"queue_hwm\": %d, \"p50_cycles\": %d, \
            \"p99_cycles\": %d, \"goodput_per_mcycle\": %.2f }"
           s.policy_name s.load_pct s.sent s.completed s.busy s.rejected
           s.shed s.hwm s.p50 s.p99 s.goodput))
    rows;
  Buffer.add_string b "\n  ]\n}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Part 4: chaos campaign                                              *)

(* The full fault-space campaign at the acceptance scale, plus the
   oracle selftest.  Every field except the host_* lines and runs/sec
   is a pure function of the seed; oracle_violations is the headline
   number and must be 0.

   The campaign runs twice when the domain runner is engaged — once
   sequentially, once across [domains] — and the two reports' campaign
   digests must match exactly (any divergence means the parallel merge
   broke determinism, and the bench aborts).  The host section records
   throughput at both widths; host fields are written one per line
   with a "host_" prefix so bench_guard's strip_host can drop them
   before exact comparison. *)
let write_chaos_json ?(domains = 1) file =
  let module Chaos = Chorus_chaos.Chaos in
  print_endline "\n=====================================================";
  print_endline " Chaos: fault-space campaign with oracles";
  print_endline "=====================================================\n";
  let disk_runs = 160 and kv_runs = 48 and seed = 42 in
  let runs = [ (Chaos.Disk, disk_runs); (Chaos.Kv, kv_runs) ] in
  let t0 = Unix.gettimeofday () in
  let r = Chaos.campaign ~runs ~seed () in
  let dt1 = Unix.gettimeofday () -. t0 in
  let rps1 = float_of_int r.Chaos.runs /. dt1 in
  let rps_n =
    if domains <= 1 then rps1
    else begin
      let t0 = Unix.gettimeofday () in
      let rn = Chaos.campaign ~runs ~domains ~seed () in
      let dtn = Unix.gettimeofday () -. t0 in
      if not (String.equal rn.Chaos.campaign_digest r.Chaos.campaign_digest)
      then begin
        Printf.eprintf
          "FATAL: %d-domain campaign digest %s != sequential %s\n" domains
          rn.Chaos.campaign_digest r.Chaos.campaign_digest;
        exit 1
      end;
      float_of_int rn.Chaos.runs /. dtn
    end
  in
  let st = Chaos.selftest ~seed in
  Printf.printf
    "runs %d  ops %d  injected %d  violations %d  (%.1f runs/sec @1d, \
     %.1f @%dd host)\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations)
    rps1 rps_n domains;
  Printf.printf "selftest: caught %b, shrunk to %d faults, replay %b\n"
    st.Chaos.caught st.Chaos.minimal_faults st.Chaos.st_replay_identical;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"chorus-bench-chaos-v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string b
    (Printf.sprintf "  \"disk_runs\": %d,\n  \"kv_runs\": %d,\n" disk_runs
       kv_runs);
  Buffer.add_string b (Printf.sprintf "  \"runs\": %d,\n" r.Chaos.runs);
  Buffer.add_string b
    (Printf.sprintf "  \"client_ops\": %d,\n" r.Chaos.total_ops);
  Buffer.add_string b
    (Printf.sprintf "  \"faults_injected\": %d,\n" r.Chaos.faults_injected);
  Buffer.add_string b "  \"faults_explored\": {";
  List.iteri
    (fun i (kind, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" kind n))
    r.Chaos.kinds;
  Buffer.add_string b "\n  },\n";
  Buffer.add_string b
    (Printf.sprintf "  \"oracle_violations\": %d,\n"
       (List.length r.Chaos.violations));
  Buffer.add_string b
    (Printf.sprintf "  \"campaign_digest\": \"%s\",\n"
       r.Chaos.campaign_digest);
  Buffer.add_string b
    (Printf.sprintf "  \"runs_per_host_sec\": %.1f,\n" rps1);
  Buffer.add_string b (Printf.sprintf "  \"host_domains\": %d,\n" domains);
  Buffer.add_string b
    (Printf.sprintf "  \"host_runs_per_sec_1d\": %.1f,\n" rps1);
  Buffer.add_string b
    (Printf.sprintf "  \"host_runs_per_sec_nd\": %.1f,\n" rps_n);
  Buffer.add_string b
    (Printf.sprintf "  \"host_speedup\": %.2f,\n" (rps_n /. rps1));
  Buffer.add_string b
    (Printf.sprintf
       "  \"selftest\": { \"caught\": %b, \"minimal_faults\": %d, \
        \"replay_identical\": %b }\n"
       st.Chaos.caught st.Chaos.minimal_faults st.Chaos.st_replay_identical);
  Buffer.add_string b "}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Part 5: projected filesystem                                        *)

(* Cold vs warm open+read over the projection, the hydration-storm
   sweep across overload policies (reusing the E23 drivers), and a
   small provider-kill chaos campaign whose headline number —
   placeholder-invariant violations — must be 0.  Every field is in
   virtual cycles and a pure function of the seed, so the guard can
   require this file to reproduce byte-identically. *)
let write_vfs_json file =
  let module E23 = Chorus_experiments.E23_projfs in
  let module Chaos = Chorus_chaos.Chaos in
  print_endline "\n=====================================================";
  print_endline " Projected FS: hydration, name cache, storms (virtual)";
  print_endline "=====================================================\n";
  let o = E23.measure_open ~quick:true ~seed:42 in
  Printf.printf
    "open: %d files  cold p50 %d p99 %d  warm p50 %d p99 %d  hydrations %d\n"
    o.E23.files o.E23.cold_p50 o.E23.cold_p99 o.E23.warm_p50 o.E23.warm_p99
    o.E23.hydrations;
  let storms =
    List.map
      (fun policy ->
        let s = E23.measure_storm ~quick:true ~seed:42 ~policy in
        Printf.printf
          "%-12s readers %d  completed %d  failed %d  p99 %d  \
           goodput/Mcyc %.1f\n"
          s.E23.policy_name s.E23.clients s.E23.completed s.E23.failed
          s.E23.p99 s.E23.goodput;
        s)
      [ `Block; `Reject; `Shed_oldest ]
  in
  let projfs_runs = 12 and seed = 42 in
  let r =
    Chaos.campaign
      ~runs:[ (Chaos.Disk, 0); (Chaos.Kv, 0); (Chaos.Projfs, projfs_runs) ]
      ~seed ()
  in
  Printf.printf
    "chaos: %d provider-kill runs  ops %d  injected %d  violations %d\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations);
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"schema\": \"chorus-bench-vfs-v1\",\n";
  Buffer.add_string b "  \"seed\": 42,\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"open\": { \"files\": %d, \"cold_p50_cycles\": %d, \
        \"cold_p99_cycles\": %d, \"warm_p50_cycles\": %d, \
        \"warm_p99_cycles\": %d, \"hydrations\": %d, \
        \"namecache_hits\": %d, \"namecache_misses\": %d },\n"
       o.E23.files o.E23.cold_p50 o.E23.cold_p99 o.E23.warm_p50
       o.E23.warm_p99 o.E23.hydrations o.E23.nc_hits o.E23.nc_misses);
  Buffer.add_string b "  \"storm\": [";
  List.iteri
    (fun i (s : Chorus_experiments.E23_projfs.storm_sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"policy\": \"%s\", \"readers\": %d, \"capacity\": %d, \
            \"completed\": %d, \"failed\": %d, \"rejected\": %d, \
            \"shed\": %d, \"queue_hwm\": %d, \"p99_cycles\": %d, \
            \"makespan_cycles\": %d, \"goodput_per_mcycle\": %.2f }"
           s.E23.policy_name s.E23.clients s.E23.capacity s.E23.completed
           s.E23.failed s.E23.rejected s.E23.shed s.E23.hwm s.E23.p99
           s.E23.makespan s.E23.goodput))
    storms;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b
    (Printf.sprintf
       "  \"chaos\": { \"projfs_runs\": %d, \"runs\": %d, \
        \"client_ops\": %d, \"faults_injected\": %d, \
        \"placeholder_violations\": %d }\n"
       projfs_runs r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
       (List.length r.Chaos.violations));
  Buffer.add_string b "}\n";
  save file b

(* ------------------------------------------------------------------ *)
(* Part 6: gray failure                                                *)

(* The E25 posture grid (healthy fabric + gray node, four client
   postures each) plus the gray chaos campaign at acceptance scale.
   The headline numbers: breakers+deadlines p99 under the gray node
   must undercut baseline's, and the campaign's oracle violations must
   be 0.  Everything except host_* is a pure function of the seed. *)
let write_gray_json file =
  let module E25 = Chorus_experiments.E25_gray in
  let module Chaos = Chorus_chaos.Chaos in
  print_endline "\n=====================================================";
  print_endline " Gray failure: breakers, deadlines, liveness oracle";
  print_endline "=====================================================\n";
  let points =
    List.concat_map
      (fun gray ->
        List.map
          (fun (breakers, deadlines) ->
            let p =
              E25.run_point ~quick:true ~seed:42 ~gray ~breakers
                ~deadlines ()
            in
            Printf.printf
              "  gray=%-5b %-18s  done %d  fail %d  p99 %d  max %d  \
               misses %d  trips %d\n"
              gray
              (E25.posture_name ~breakers ~deadlines)
              p.E25.completed p.E25.failed p.E25.p99 p.E25.pmax
              p.E25.misses p.E25.trips;
            p)
          [ (false, false); (false, true); (true, false); (true, true) ])
      [ false; true ]
  in
  let gray_runs = 50 and seed = 42 in
  let t0 = Unix.gettimeofday () in
  let r =
    Chaos.campaign
      ~runs:[ (Chaos.Disk, 0); (Chaos.Kv, 0); (Chaos.Gray, gray_runs) ]
      ~seed ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "\nchaos: %d gray runs  ops %d  injected %d  violations %d  \
     (%.1f runs/sec host)\n"
    r.Chaos.runs r.Chaos.total_ops r.Chaos.faults_injected
    (List.length r.Chaos.violations)
    (float_of_int r.Chaos.runs /. dt);
  if r.Chaos.violations <> [] then begin
    List.iter
      (fun v -> Printf.eprintf "VIOLATION: %s\n" v.Chaos.first)
      r.Chaos.violations;
    Printf.eprintf "FATAL: gray campaign must pass every oracle\n";
    exit 1
  end;
  let b = Buffer.create 2048 in
  Buffer.add_string b "{\n  \"schema\": \"chorus-bench-gray-v1\",\n";
  Buffer.add_string b "  \"seed\": 42,\n";
  Buffer.add_string b "  \"postures\": [";
  List.iteri
    (fun i (p : E25.point) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    { \"gray\": %b, \"breakers\": %b, \"deadlines\": %b, \
            \"completed\": %d, \"failed\": %d, \"p50_cycles\": %d, \
            \"p99_cycles\": %d, \"max_cycles\": %d, \
            \"deadline_misses\": %d, \"breaker_trips\": %d, \
            \"breaker_skips\": %d, \"link_delayed\": %d }"
           p.E25.gray p.E25.breakers p.E25.deadlines p.E25.completed
           p.E25.failed p.E25.p50 p.E25.p99 p.E25.pmax p.E25.misses
           p.E25.trips p.E25.skips p.E25.link_delayed))
    points;
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"chaos\": {\n";
  Buffer.add_string b
    (Printf.sprintf "    \"gray_runs\": %d,\n" gray_runs);
  Buffer.add_string b
    (Printf.sprintf "    \"client_ops\": %d,\n" r.Chaos.total_ops);
  Buffer.add_string b
    (Printf.sprintf "    \"faults_injected\": %d,\n" r.Chaos.faults_injected);
  Buffer.add_string b "    \"faults_explored\": {";
  List.iteri
    (fun i (kind, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n      \"%s\": %d" kind n))
    r.Chaos.kinds;
  Buffer.add_string b "\n    },\n";
  Buffer.add_string b
    (Printf.sprintf "    \"oracle_violations\": %d,\n"
       (List.length r.Chaos.violations));
  Buffer.add_string b
    (Printf.sprintf "    \"campaign_digest\": \"%s\"\n"
       r.Chaos.campaign_digest);
  Buffer.add_string b "  }\n}\n";
  save file b

let () =
  let args = Array.to_list Sys.argv in
  (* --domains N: width of the parallel chaos measurement (0 = auto).
     Simulator-side output never depends on it — only host_* lines. *)
  let domains =
    let rec find = function
      | "--domains" :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 0 -> n
        | _ ->
          prerr_endline "--domains expects a non-negative integer";
          exit 2)
      | _ :: rest -> find rest
      | [] -> 1
    in
    match find args with
    | 0 -> Chorus_par.Pool.recommended ()
    | n -> n
  in
  (* every deterministic BENCH_<name>.json, in the order a full run
     writes them; --<name>-only writes just that one *)
  let benches =
    [ ("cluster", write_cluster_json);
      ("overload", write_overload_json);
      ("chaos", write_chaos_json ~domains);
      ("vfs", write_vfs_json);
      ("gray", write_gray_json) ]
  in
  let write (name, w) = w (Printf.sprintf "BENCH_%s.json" name) in
  match
    List.find_opt (fun (name, _) -> List.mem ("--" ^ name ^ "-only") args) benches
  with
  | Some bench -> write bench
  | None ->
    if not (List.mem "--json-only" args) then run_tables ();
    if not (List.mem "--tables-only" args) then List.iter write benches
