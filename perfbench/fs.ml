(* fs-kernel: the message kernel ([Kernel.boot] on a 64-core mesh)
   serving the E3-style [Fsload] mix — 60 read / 25 write / 10 stat /
   5 create+unlink, Zipf theta 0.7, think 300 — in a closed loop with
   one client fiber per non-service core.

   Set-up boots the kernel and preloads [files] 4 KiB files.  The timed
   phase is one [Fsload.run_clients].  Afterwards no op may have failed
   and every preloaded file must still stat at its full size. *)

open Harness
module Runtime = Chorus.Runtime
module Machine = Chorus_machine.Machine
module Policy = Chorus_sched.Policy
module Fsload = Chorus_workload.Fsload
module Kernel = Chorus_kernel.Kernel
module Msgvfs = Chorus_kernel.Msgvfs
module Bcache = Chorus_kernel.Bcache
module Blockdev = Chorus_kernel.Blockdev
module Load = Fsload.Make (Msgvfs)

let cores = 64
let clients = cores - (cores / 8) - 1
let files = 8192
let file_size = 4096

(* Host cost per op on the reference machine (a 2-vCPU VM), used only
   to turn a host-time budget into a fixed, seed-independent op count. *)
let ref_ops_per_host_s = 26_000.0

let ops_per_client ~secs =
  max 20 (int_of_float (secs *. ref_ops_per_host_s /. float_of_int clients))

let round ~seed ~secs =
  let t0 = Unix.gettimeofday () in
  let cfg =
    { Fsload.default_config with
      clients;
      ops_per_client = ops_per_client ~secs;
      files;
      dirs = 64;
      file_size;
      io_size = 256;
      theta = 0.7;
      think = 300;
      seed }
  in
  let config =
    Runtime.config ~policy:(Policy.round_robin ()) ~seed
      (Machine.mesh ~cores)
  in
  let r, host =
    run_round ~t0 config (fun () ->
        let kern =
          span "fs.boot" (fun () ->
              Kernel.boot
                { Kernel.default_config with
                  bcache_shards = cores / 8;
                  cgroups = cores / 16 })
        in
        let fs = Kernel.fs_client kern in
        span "fs.preload" (fun () -> Load.setup fs cfg);
        let gets0 = Bcache.hits kern.bcache + Bcache.misses kern.bcache
        and hits0 = Bcache.hits kern.bcache
        and ios0 = Blockdev.reads kern.dev + Blockdev.writes kern.dev in
        let timed_phase, res =
          span "fs.timed" (fun () ->
              timed (fun () ->
                  Load.run_clients (fun _ -> Kernel.fs_client kern) cfg))
        in
        let gets = Bcache.hits kern.bcache + Bcache.misses kern.bcache - gets0
        and hits = Bcache.hits kern.bcache - hits0
        and ios = Blockdev.reads kern.dev + Blockdev.writes kern.dev - ios0 in
        let errors = ref [] in
        if res.Fsload.failed_ops > 0 then
          errors :=
            [ Printf.sprintf "%d fs ops failed on the preloaded population"
                res.Fsload.failed_ops ];
        span "fs.check" (fun () ->
            for i = 0 to files - 1 do
              let path = Printf.sprintf "/dir%d/file%d" (i mod cfg.dirs) i in
              match Msgvfs.stat fs path with
              | Ok st when st.Chorus_fsspec.Fsspec.size = file_size -> ()
              | Ok _ | Error _ ->
                if List.length !errors < 5 then
                  errors := (path ^ " lost its contents") :: !errors
            done);
        let ops = res.Fsload.total_ops in
        let per_op name p =
          match List.assoc_opt name res.Fsload.per_op with
          | Some h -> hist_p h p
          | None -> 0.0
        in
        let layers =
          List.concat_map
            (fun name ->
              [ (Printf.sprintf "fs.%s_p50_vcycles" name, per_op name 50.0);
                (Printf.sprintf "fs.%s_p99_vcycles" name, per_op name 99.0) ])
            [ "read"; "write"; "stat"; "create" ]
          @ [ ("bcache.gets_per_op", per gets ops);
              ("bcache.hit_ratio", per hits gets);
              ("blockdev.ios_per_op", per ios ops) ]
        in
        { host = no_host_time;
          timed = timed_phase;
          ops;
          attempted = ops;
          failed = res.Fsload.failed_ops;
          p50 = Histogram.percentile res.Fsload.latency 50.0;
          p99 = Histogram.percentile res.Fsload.latency 99.0;
          samples = Histogram.count res.Fsload.latency;
          vops_per_mcycle = Fsload.throughput res;
          ok_ratio = per (ops - res.Fsload.failed_ops) ops;
          layers;
          errors = List.rev !errors })
  in
  { r with layers = core_layers r @ r.layers; host }
