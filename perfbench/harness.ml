(* Host-side measurement plumbing shared by the workloads.

   A workload round is one fresh simulated run: set-up (boot, preload),
   a timed phase, then output checks.  The benchmark takes marks around
   the timed phase from outside the program: the OCaml allocator's
   counters and the engine's work counters.  Reading them allocates the
   same words every time, so the engine counts and [Gc.minor_words]
   repeat bit for bit for a fixed seed. *)

module Engine = Chorus.Engine
module Histogram = Chorus_util.Histogram

(* Engine work counters: the [Engine.counters] fields this benchmark
   reports. *)
type work = {
  events : int;
  segments : int;
  wakes : int;
  spawns : int;
  msgs : int;
  remote_msgs : int;
  words_copied : int;
  hops : int;
  retries : int;
}

let work_of_engine () =
  let c = Engine.counters (Engine.current ()) in
  { events = c.events; segments = c.segments; wakes = c.wakes;
    spawns = c.spawns; msgs = c.msgs; remote_msgs = c.remote_msgs;
    words_copied = c.words_copied; hops = c.hops; retries = c.retries }

let work_diff b a =
  { events = b.events - a.events; segments = b.segments - a.segments;
    wakes = b.wakes - a.wakes; spawns = b.spawns - a.spawns;
    msgs = b.msgs - a.msgs; remote_msgs = b.remote_msgs - a.remote_msgs;
    words_copied = b.words_copied - a.words_copied; hops = b.hops - a.hops;
    retries = b.retries - a.retries }

(* Trace records seen so far by the traced run's sink, which keeps only
   records emitted while a timed phase is open. *)
let trace_records = ref 0
let in_timed_phase = ref false

(* A mark: allocator and trace counters at one instant. *)
type mark = { words : float; gc : Gc.stat; records : int }

let mark () =
  let gc = Gc.quick_stat () in
  { words = Gc.minor_words (); gc; records = !trace_records }

(* Host-time spans around the benchmark's own calls into each layer:
   (name, start and duration in seconds since process start), kept in
   memory and printed at exit by the traced run. *)
let spans : (string * float * float) list ref = ref []
let t_start = Unix.gettimeofday ()

let span name f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  spans := (name, t0 -. t_start, t1 -. t0) :: !spans;
  x

(* Host speed.  A shared VM's speed drifts by tens of percent over tens
   of seconds (another tenant on the sibling hyperthread, frequency
   changes), and the simulator slows exactly as much as any other code.
   [reference ()] times a fixed loop independent of Chorus: 60k
   read-modify-writes of a 512 KiB int array.  It allocates nothing, so
   the garbage collector never does the program's work inside it.
   [nominal_reference_s] is its time on the reference machine (a 2-vCPU
   Intel Xeon VM at 2.0 GHz, median of some 40k timings); a host second
   scaled by nominal/measured reference time is a second at that
   machine's nominal speed. *)
let nominal_reference_s = 0.45e-3
let reference_array = Array.make 65536 1

let reference () =
  let a = reference_array in
  let t0 = Unix.gettimeofday () in
  let x = ref 12345 in
  for _ = 1 to 60_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land 65535 in
    a.(k) <- a.(k) + (!x lsr 16)
  done;
  Unix.gettimeofday () -. t0

(* [raw] host seconds just measured, scaled to nominal speed. *)
let scale raw = raw *. nominal_reference_s /. reference ()

(* Host seconds at nominal speed and minor words spent in [f ()]. *)
let cost f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  (scale (t1 -. t0), w1 -. w0)

(* Running a round.  [run_round] steps the engine through
   [Engine.start] / [Engine.run_until] / [Engine.finish] (the same
   execution as [Runtime.run], event for event) in steps of
   [step_cycles] virtual cycles, and cuts the run into units of at least
   [unit_events] engine events (about 12 ms of host time), also cutting
   where the timed phase opens and closes.  After each unit it times
   [reference ()] and scales the unit's host time to nominal speed; a
   unit always holds real work, so the reference loop always runs after
   the same kind of cache traffic.  Unit boundaries depend only on event
   counts, so rounds of one seed and size cut the same units, and the
   per-unit median across rounds ({!steady_timed_s}) keeps every piece
   of work, lumpy or not, and drops transient slowdowns, which hit
   different units in different rounds.

   It returns main's result, the scaled host seconds before the timed
   phase (set-up, counted from [t0]) and of every unit that overlaps the
   timed phase, and the raw sums of both. *)
let step_cycles = 10_000
let unit_events = 4_000
let trace_sink : Chorus.Trace.sink option ref = ref None

type host_time = {
  setup_scaled : float;
  setup_raw : float;
  timed_scaled : float array;
  timed_raw : float;
}

let no_host_time =
  { setup_scaled = 0.0; setup_raw = 0.0; timed_scaled = [||]; timed_raw = 0.0 }

let run_round ~t0 (config : Chorus.Runtime.config) main =
  let e =
    Engine.create
      { Engine.machine = config.machine; policy = config.policy;
        seed = config.seed; trace = !trace_sink;
        max_events = config.max_events }
  in
  let result = ref None in
  Engine.start e (fun () -> result := Some (main ()));
  let events () = (Engine.counters e).events in
  let setup = ref 0.0 and setup_raw = ref 0.0 in
  let timed = ref [] and timed_raw = ref 0.0 and seen = ref false in
  let unit_start = ref t0 and unit_first = ref (events ())
  and unit_timed = ref false in
  let close_unit () =
    let raw = Unix.gettimeofday () -. !unit_start in
    let scaled = scale raw in
    if !unit_timed then begin
      seen := true;
      timed := scaled :: !timed;
      timed_raw := !timed_raw +. raw
    end
    else begin
      setup := !setup +. scaled;
      setup_raw := !setup_raw +. raw
    end;
    unit_start := Unix.gettimeofday ();
    unit_first := events ();
    unit_timed := false
  in
  let rec step limit =
    if not (Engine.drained e || (!seen && not !in_timed_phase)) then begin
      let was_timed = !in_timed_phase in
      Engine.run_until e limit;
      if was_timed || !in_timed_phase then unit_timed := true;
      if was_timed <> !in_timed_phase
         || events () - !unit_first >= unit_events
      then close_unit ();
      step (limit + step_cycles)
    end
  in
  step step_cycles;
  Engine.finish e;
  match !result with
  | Some r ->
    ( r,
      { setup_scaled = !setup; setup_raw = !setup_raw;
        timed_scaled = Array.of_list (List.rev !timed);
        timed_raw = !timed_raw } )
  | None -> failwith "round: main fiber returned no result"

(* The timed phase between two marks. *)
type phase = {
  minor_words : float;
  minor_gcs : int;
  promoted_words : float;
  major_gcs : int;
  records : int;  (** trace records emitted *)
  work : work;  (** engine work done in the phase *)
}

let phase a b ~work =
  { minor_words = b.words -. a.words;
    minor_gcs = b.gc.minor_collections - a.gc.minor_collections;
    promoted_words = b.gc.promoted_words -. a.gc.promoted_words;
    major_gcs = b.gc.major_collections - a.gc.major_collections;
    records = b.records - a.records;
    work }

(* [timed f] runs the timed phase [f] (inside a running engine) between
   two marks and returns the phase's figures with [f]'s result. *)
let timed f =
  let w0 = work_of_engine () in
  let a = mark () in
  in_timed_phase := true;
  let x = f () in
  in_timed_phase := false;
  let b = mark () in
  (phase a b ~work:(work_diff (work_of_engine ()) w0), x)

(* One round's results.  Everything except [host] is exact: it
   depends only on the seed and the round size. *)
type round = {
  host : host_time;  (** host time by unit, scaled to nominal speed *)
  timed : phase;
  ops : int;  (** ops completed *)
  attempted : int;
  failed : int;
  p50 : int;  (** op latency, virtual cycles *)
  p99 : int;
  samples : int;  (** latency samples behind p50/p99 *)
  vops_per_mcycle : float;
  ok_ratio : float;
  layers : (string * float) list;  (** exact per-layer figures *)
  errors : string list;  (** failed output checks; empty = correct *)
}

let per x n = if n = 0 then 0.0 else float_of_int x /. float_of_int n

(* Per-op figures every workload reports from its timed phase. *)
let core_layers r =
  let w = r.timed.work in
  [ ("core.events_per_op", per w.events r.ops);
    ("core.segments_per_op", per w.segments r.ops);
    ("core.wakes_per_op", per w.wakes r.ops);
    ("core.spawns_per_op", per w.spawns r.ops);
    ("chan.msgs_per_op", per w.msgs r.ops);
    ("chan.remote_msgs_per_op", per w.remote_msgs r.ops);
    ("chan.words_copied_per_op", per w.words_copied r.ops);
    ("chan.hops_per_op", per w.hops r.ops) ]

(* The OCaml runtime's figures for the timed phase.  [Gc.minor_words]
   is exact; the collection counts depend on the heap's state when the
   phase starts, so they repeat only between rounds that start alike
   (the first round of fresh processes). *)
let gc_layers r =
  [ ("gc.minor_collections_per_kop", 1000.0 *. per r.timed.minor_gcs r.ops);
    ("gc.promoted_words_per_op",
     r.timed.promoted_words /. float_of_int (max 1 r.ops));
    ("gc.major_collections", float_of_int r.timed.major_gcs) ]

let alloc_words_per_op r = r.timed.minor_words /. float_of_int (max 1 r.ops)

(* The virtual outputs of a round, as one string: two rounds of the same
   seed and size must print the same.  Host-side figures (times and
   allocation) are left out, so a traced round can be compared with an
   untraced one. *)
let virtual_outputs r =
  let b = Buffer.create 512 in
  let w = r.timed.work in
  Printf.bprintf b "ops=%d attempted=%d failed=%d p50=%d p99=%d n=%d vops=%.17g ok=%.17g\n"
    r.ops r.attempted r.failed r.p50 r.p99 r.samples r.vops_per_mcycle
    r.ok_ratio;
  Printf.bprintf b "work=%d,%d,%d,%d,%d,%d,%d,%d,%d\n" w.events w.segments
    w.wakes w.spawns w.msgs w.remote_msgs w.words_copied w.hops w.retries;
  List.iter (fun (k, v) -> Printf.bprintf b "%s=%.17g\n" k v) r.layers;
  List.iter (fun e -> Printf.bprintf b "error=%s\n" e) r.errors;
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (virtual_outputs r))

let hist_p h p = float_of_int (Histogram.percentile h p)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host seconds of the timed phase at nominal speed, with transient
   slowdowns removed: the sum over units of the unit's median across
   rounds. *)
let steady_timed_s rounds =
  let units r = r.host.timed_scaled in
  let k = Array.length (units (List.hd rounds)) in
  if List.exists (fun r -> Array.length (units r) <> k) rounds then
    invalid_arg "steady_timed_s: rounds were cut differently";
  let total = ref 0.0 in
  for i = 0 to k - 1 do
    total := !total +. median (List.map (fun r -> (units r).(i)) rounds)
  done;
  !total

(* A microbenchmark figure: host ns per op at nominal speed (median of
   [reps] repeats), minor words per op and virtual cycles per op (both
   exact; taken from the first repeat). *)
type ub = { ns : float; words : float; vcycles : float }

let ub_of ~n runs =
  let _, words, vcycles = List.hd runs in
  let fn = float_of_int n in
  { ns = 1e9 *. median (List.map (fun (s, _, _) -> s) runs) /. fn;
    words = words /. fn;
    vcycles = float_of_int vcycles /. fn }

let ub_repeat ~reps ~n f = ub_of ~n (List.init reps (fun _ -> f ()))
