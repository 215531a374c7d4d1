(* Tests for the utility substrate: RNG, priority queue, deque,
   histograms, stats, Zipf, table formatting. *)

module Rng = Chorus_util.Rng
module Pqueue = Chorus_util.Pqueue
module Deque = Chorus_util.Deque
module Histogram = Chorus_util.Histogram
module Stats = Chorus_util.Stats
module Zipf = Chorus_util.Zipf
module Rcu = Chorus_util.Rcu
module Tablefmt = Chorus_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.make 123 and b = Rng.make 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.make 7 in
  let b = Rng.split a in
  let xa = Rng.bits64 a and xb = Rng.bits64 b in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_bounds () =
  let r = Rng.make 5 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-3) 3 in
    Alcotest.(check bool) "int_in range" true (v >= -3 && v <= 3)
  done;
  for _ = 1 to 100 do
    let f = Rng.float r 2.5 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_uniformity () =
  (* chi-square-ish sanity: buckets within 3x of each other *)
  let r = Rng.make 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket near uniform" true (c > 700 && c < 1400))
    buckets

let test_rng_exponential_mean () =
  let r = Rng.make 13 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.exponential r 100.0
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean approx 100 (got %.1f)" mean)
    true
    (mean > 90.0 && mean < 110.0)

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)

let pqueue_drain q =
  let rec go acc =
    if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop q :: acc)
  in
  go []

let test_pqueue_orders () =
  let q = Pqueue.create ~dummy:0 in
  List.iter (fun k -> Pqueue.add q k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (pqueue_drain q)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains any input sorted" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      (* values remember their insertion index: the drain is sorted by
         key and, among equal keys, in insertion order *)
      let q = Pqueue.create ~dummy:(0, 0) in
      List.iteri (fun i x -> Pqueue.add q x (x, i)) xs;
      let expected =
        List.mapi (fun i x -> (x, i)) xs
        |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      in
      pqueue_drain q = expected)

let prop_pqueue_interleaved =
  (* [Some k] adds key [k], [None] pops; checked against a list kept
     stably sorted by key.  Runs past 64 pending bindings exercise
     growth, and pops between adds reuse freed value slots. *)
  QCheck.Test.make ~name:"pqueue interleaved add/pop matches a sorted model"
    ~count:300
    QCheck.(list_of_size Gen.(0 -- 400) (option (int_range 0 50)))
    (fun ops ->
      let q = Pqueue.create ~dummy:(-1, -1) in
      let model = ref [] and added = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Some k ->
            let v = (k, !added) in
            incr added;
            Pqueue.add q k v;
            model :=
              List.stable_sort (fun (a, _) (b, _) -> compare a b)
                (!model @ [ v ]);
            true
          | None -> (
            match !model with
            | [] -> Pqueue.is_empty q
            | ((k, _) as v) :: rest ->
              model := rest;
              Pqueue.min_key q = k && Pqueue.pop q = v))
          && Pqueue.length q = List.length !model)
        ops)

let test_pqueue_fifo_ties () =
  (* equal keys pop in insertion order, also when interleaved with
     smaller and larger keys *)
  let q = Pqueue.create ~dummy:"" in
  List.iter (fun v -> Pqueue.add q 42 v) [ "a"; "b" ];
  Pqueue.add q 50 "late";
  Pqueue.add q 7 "early";
  List.iter (fun v -> Pqueue.add q 42 v) [ "c"; "d" ];
  Alcotest.(check int) "min key" 7 (Pqueue.min_key q);
  Alcotest.(check (list string))
    "tie order" [ "early"; "a"; "b"; "c"; "d"; "late" ] (pqueue_drain q)

let test_pqueue_pop_releases () =
  (* a popped value must not stay reachable from the queue's arrays
     while the queue itself lives on *)
  let q = Pqueue.create ~dummy:(ref 0) in
  let w = Weak.create 4 in
  List.iter
    (fun k ->
      let v = ref k in
      Weak.set w k (Some v);
      Pqueue.add q k v)
    [ 3; 1; 2 ];
  List.iter
    (fun k ->
      Alcotest.(check int) "key order" k !(Pqueue.pop q);
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "value %d collectable once popped" k)
        true (Weak.get w k = None);
      Alcotest.(check int) "remaining" (3 - k) (Pqueue.length q))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)

let test_deque_basics () =
  let d = Deque.create () in
  Deque.push_back d 1;
  Deque.push_back d 2;
  Deque.push_front d 0;
  Alcotest.(check (list int)) "order" [ 0; 1; 2 ] (Deque.to_list d);
  Alcotest.(check int) "front" 0 (Deque.front d);
  Alcotest.(check int) "take front" 0 (Deque.take_front d);
  Alcotest.(check int) "take front again" 1 (Deque.take_front d);
  Alcotest.(check int) "length" 1 (Deque.length d);
  Alcotest.check_raises "take from empty"
    (Invalid_argument "Deque.take_front: empty") (fun () ->
      ignore (Deque.take_front d);
      ignore (Deque.take_front d));
  (* the buffer is never a flat float array, whatever the element *)
  let f = Deque.create () in
  List.iter (Deque.push_back f) [ 1.5; 2.5; 3.5 ];
  Deque.push_front f 0.5;
  Alcotest.(check (float 0.)) "float front" 0.5 (Deque.take_front f);
  Alcotest.(check (list (float 0.))) "floats" [ 1.5; 2.5; 3.5 ]
    (Deque.to_list f)

let prop_deque_model =
  (* model-check against a list; the buffer starts at two slots, so
     runs of mixed pushes and takes wrap the ring at every capacity *)
  QCheck.Test.make ~name:"deque behaves like a list" ~count:300
    QCheck.(list (pair (int_range 0 3) small_int))
    (fun ops ->
      let d = Deque.create () in
      let model = ref [] in
      List.for_all
        (fun (op, v) ->
          (match op with
          | 0 ->
            Deque.push_back d v;
            model := !model @ [ v ];
            true
          | 1 ->
            Deque.push_front d v;
            model := v :: !model;
            true
          | 2 -> (
            match !model with
            | [] -> Deque.is_empty d
            | x :: rest ->
              model := rest;
              Deque.take_front d = x)
          | _ -> (
            match !model with
            | [] -> Deque.is_empty d
            | x :: _ -> Deque.front d = x))
          && Deque.length d = List.length !model)
        ops
      && Deque.to_list d = !model)

let test_deque_take_releases () =
  (* a taken element must not stay reachable from the buffer while the
     deque itself lives on *)
  let d = Deque.create () in
  let w = Weak.create 3 in
  List.iter
    (fun k ->
      let v = ref k in
      Weak.set w k (Some v);
      Deque.push_back d v)
    [ 0; 1; 2 ];
  List.iter
    (fun k ->
      Alcotest.(check int) "fifo order" k !(Deque.take_front d);
      Gc.full_major ();
      Alcotest.(check bool)
        (Printf.sprintf "element %d collectable once taken" k)
        true (Weak.get w k = None);
      Alcotest.(check int) "remaining" (2 - k) (Deque.length d))
    [ 0; 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int) "p50" 3 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100" 5 (Histogram.percentile h 100.0);
  Alcotest.(check int) "max" 5 (Histogram.max_value h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h)

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"percentile within 5% relative error" ~count:100
    QCheck.(list_of_size Gen.(10 -- 200) (int_range 0 1_000_000))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.record h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun p ->
          let exact =
            sorted.(min (n - 1)
                      (max 0 (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))
          in
          let approx = Histogram.percentile h p in
          approx >= exact
          && float_of_int approx <= (float_of_int exact *. 1.05) +. 2.0)
        [ 50.0; 90.0; 99.0 ])

let test_histogram_percentile_boundaries () =
  (* below [linear_limit] every value has its own bucket: percentiles
     are exact, including at the rank boundaries *)
  let h = Histogram.create () in
  for v = 0 to 63 do
    Histogram.record h v
  done;
  Alcotest.(check int) "p1 -> rank 1" 0 (Histogram.percentile h 1.0);
  Alcotest.(check int) "p25 -> rank 16" 15 (Histogram.percentile h 25.0);
  Alcotest.(check int) "p50 -> rank 32" 31 (Histogram.percentile h 50.0);
  Alcotest.(check int) "p100 -> rank 64" 63 (Histogram.percentile h 100.0);
  (* empty histogram *)
  Alcotest.(check int) "empty p99" 0 (Histogram.percentile (Histogram.create ()) 99.0);
  (* negative samples clamp to zero *)
  let hneg = Histogram.create () in
  Histogram.record hneg (-5);
  Alcotest.(check int) "negative clamps" 0 (Histogram.percentile hneg 50.0);
  (* the log region reports a bucket upper bound: within one
     sub-bucket (1/32 relative) above the sample, and capped at the
     observed max so a top-bucket percentile never exceeds it *)
  List.iter
    (fun v ->
      let h2 = Histogram.create () in
      Histogram.record h2 v;
      Histogram.record h2 (4 * v);
      let p50 = Histogram.percentile h2 50.0 in
      Alcotest.(check bool)
        (Printf.sprintf "p50 of {%d,%d} in [%d, %d+width]" v (4 * v) v v)
        true
        (p50 >= v && p50 <= v + (v / 32) + 1);
      Alcotest.(check int)
        (Printf.sprintf "p100 of {%d,..} capped at max" v)
        (4 * v)
        (Histogram.percentile h2 100.0))
    [ 64; 65; 127; 128; 1000; 65536; 1_000_000 ]

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.record a 10;
  Histogram.record b 1000;
  let m = Histogram.merge a b in
  Alcotest.(check int) "count" 2 (Histogram.count m);
  Alcotest.(check int) "max" 1000 (Histogram.max_value m);
  Alcotest.(check int) "min" 10 (Histogram.min_value m)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0) (Stats.variance s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.max s)

let prop_stats_merge_equals_sequential =
  QCheck.Test.make ~name:"merge(a,b) == sequential" ~count:100
    QCheck.(pair (list (float_range (-100.) 100.)) (list (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let a = Stats.create () and b = Stats.create () and s = Stats.create () in
      List.iter (Stats.add a) xs;
      List.iter (Stats.add b) ys;
      List.iter (Stats.add s) (xs @ ys);
      let m = Stats.merge a b in
      Stats.count m = Stats.count s
      && (Stats.count s = 0
         || Float.abs (Stats.mean m -. Stats.mean s) < 1e-6)
      && (Stats.count s < 2
         || Float.abs (Stats.variance m -. Stats.variance s) < 1e-4))

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let test_zipf_skew () =
  let z = Zipf.make ~n:100 ~theta:1.0 in
  let r = Rng.make 3 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let i = Zipf.sample z r in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "rank 0 much hotter than rank 50" true
    (counts.(0) > 10 * max 1 counts.(50));
  (* pmf sums to 1 *)
  let total = ref 0.0 in
  for i = 0 to 99 do
    total := !total +. Zipf.probability z i
  done;
  Alcotest.(check (float 1e-9)) "pmf sums to 1" 1.0 !total

let test_zipf_tables_exact () =
  (* the tables equal, bit for bit, the textbook construction: a weight
     array, its sum, a normalised copy and a running sum *)
  List.iter
    (fun theta ->
      let n = 1000 in
      let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
      let total = Array.fold_left ( +. ) 0.0 w in
      let pmf = Array.map (fun x -> x /. total) w in
      let acc = ref 0.0 in
      let cdf =
        Array.mapi
          (fun i p ->
            acc := !acc +. p;
            if i = n - 1 then 1.0 else !acc)
          pmf
      in
      let z = Zipf.make ~n ~theta in
      let bits = Int64.bits_of_float in
      for i = 0 to n - 1 do
        if bits (Zipf.probability z i) <> bits pmf.(i) then
          Alcotest.failf "theta %g: pmf of rank %d differs" theta i;
        if bits (Zipf.cumulative z i) <> bits cdf.(i) then
          Alcotest.failf "theta %g: cdf of rank %d differs" theta i
      done)
    [ 0.7; 0.99 ]

let test_zipf_uniform_theta0 () =
  let z = Zipf.make ~n:10 ~theta:0.0 in
  for i = 0 to 9 do
    Alcotest.(check (float 1e-9)) "uniform mass" 0.1 (Zipf.probability z i)
  done

(* ------------------------------------------------------------------ *)
(* Rcu                                                                 *)

let test_rcu_publish_read () =
  let t = Rcu.make [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "initial snapshot" [ 1; 2; 3 ] (Rcu.read t);
  Alcotest.(check int) "starts at version 1" 1 (Rcu.version t);
  Rcu.publish t [ 4 ];
  Alcotest.(check (list int)) "new snapshot visible" [ 4 ] (Rcu.read t);
  Alcotest.(check int) "version bumped" 2 (Rcu.version t);
  (* a reader that grabbed the old snapshot keeps a consistent value:
     published snapshots are never mutated, only replaced *)
  let old = Rcu.make [ 9 ] in
  let held = Rcu.read old in
  Rcu.publish old [];
  Alcotest.(check (list int)) "held snapshot intact" [ 9 ] held

let test_rcu_update_counters () =
  let t = Rcu.make 10 in
  Rcu.update t (fun v -> v + 1);
  Alcotest.(check int) "update publishes f snapshot" 11 (Rcu.read t);
  (* only read counts reads; update and peek don't *)
  ignore (Rcu.peek t);
  Alcotest.(check int) "reads counted" 1 (Rcu.reads t);
  Alcotest.(check int) "publishes counted" 1 (Rcu.publishes t);
  Alcotest.(check int) "peek sees current" 11 (Rcu.peek t)

(* ------------------------------------------------------------------ *)
(* Tablefmt                                                            *)

let test_table_renders () =
  let t =
    Tablefmt.create ~title:"demo"
      ~columns:[ ("name", Tablefmt.Left); ("value", Tablefmt.Right) ]
  in
  Tablefmt.add_row t [ "alpha"; "1" ];
  Tablefmt.add_row t [ "b"; "22" ];
  let s = Tablefmt.to_string t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0
    && String.sub s 0 11 = "== demo ==\n");
  let csv = Tablefmt.to_csv t in
  Alcotest.(check string) "csv" "name,value\nalpha,1\nb,22\n" csv

let test_table_rejects_bad_row () =
  let t =
    Tablefmt.create ~title:"x" ~columns:[ ("a", Tablefmt.Left) ]
  in
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Tablefmt.add_row (x): 2 cells for 1 columns")
    (fun () -> Tablefmt.add_row t [ "1"; "2" ])

let test_csv_escaping () =
  let t = Tablefmt.create ~title:"e" ~columns:[ ("c", Tablefmt.Left) ] in
  Tablefmt.add_row t [ "has,comma" ];
  Tablefmt.add_row t [ "has\"quote" ];
  Alcotest.(check string) "escaped" "c\n\"has,comma\"\n\"has\"\"quote\"\n"
    (Tablefmt.to_csv t)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "chorus-util"
    [ ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "exponential mean" `Quick
            test_rng_exponential_mean ] );
      ( "pqueue",
        [ Alcotest.test_case "orders" `Quick test_pqueue_orders;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "pop releases the value" `Quick
            test_pqueue_pop_releases;
          qt prop_pqueue_sorts;
          qt prop_pqueue_interleaved ] );
      ( "deque",
        [ Alcotest.test_case "basics" `Quick test_deque_basics;
          Alcotest.test_case "take releases the element" `Quick
            test_deque_take_releases;
          qt prop_deque_model ] );
      ( "histogram",
        [ Alcotest.test_case "exact small values" `Quick
            test_histogram_exact_small;
          Alcotest.test_case "percentile boundaries" `Quick
            test_histogram_percentile_boundaries;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          qt prop_histogram_percentile_bounded ] );
      ( "stats",
        [ Alcotest.test_case "welford" `Quick test_stats_welford;
          qt prop_stats_merge_equals_sequential ] );
      ( "zipf",
        [ Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "tables exact" `Quick test_zipf_tables_exact;
          Alcotest.test_case "uniform at theta 0" `Quick
            test_zipf_uniform_theta0 ] );
      ( "rcu",
        [ Alcotest.test_case "publish/read" `Quick test_rcu_publish_read;
          Alcotest.test_case "update + counters" `Quick
            test_rcu_update_counters ] );
      ( "tablefmt",
        [ Alcotest.test_case "renders" `Quick test_table_renders;
          Alcotest.test_case "bad row rejected" `Quick
            test_table_rejects_bad_row;
          Alcotest.test_case "csv escaping" `Quick test_csv_escaping ] ) ]
