(* Smoke tests over the experiment harnesses: every registered
   experiment must run in quick mode, produce at least one table with
   at least one row, and be deterministic in its seed.  A few
   shape-level assertions pin the headline results so a regression in
   the simulator that flips a conclusion fails loudly here. *)

module Experiments = Chorus_experiments.Experiments
module Tablefmt = Chorus_util.Tablefmt

let cell table ~row ~col =
  let rows = Tablefmt.rows table in
  List.nth (List.nth rows row) col

let fcell table ~row ~col = float_of_string (cell table ~row ~col)

(* Every experiment's quick seed-7 tables, rendered exactly as
   [chorus_sim run all --seed 7] prints them, must match the committed
   golden byte for byte.  After an intentional change to a virtual
   result, regenerate it with
     dune exec bin/chorus_sim.exe -- run all --seed 7 \
       > test/golden/experiments_quick_seed7.txt *)
let golden = "../golden/experiments_quick_seed7.txt"

let render e tables =
  Printf.sprintf "--- %s: %s ---\nclaim: %s\n"
    (String.uppercase_ascii e.Experiments.id)
    e.Experiments.title e.Experiments.claim
  ^ String.concat "" (List.map (fun t -> Tablefmt.to_string t ^ "\n") tables)

let test_all_run_and_fill () =
  let rendered =
    List.map
      (fun e ->
        let tables = e.Experiments.run ~quick:true ~seed:7 in
        Alcotest.(check bool)
          (e.Experiments.id ^ " produced tables")
          true
          (List.length tables >= 1);
        List.iter
          (fun t ->
            Alcotest.(check bool)
              (e.Experiments.id ^ ":" ^ Tablefmt.title t ^ " has rows")
              true
              (List.length (Tablefmt.rows t) >= 1))
          tables;
        render e tables)
      Experiments.all
  in
  let expected = In_channel.with_open_bin golden In_channel.input_all in
  let lines s = String.split_on_char '\n' s in
  let rec first_diff n = function
    | e :: es, a :: as_ ->
      if e = a then first_diff (n + 1) (es, as_)
      else Alcotest.failf "%s:%d: expected %S, got %S" golden n e a
    | [], [] -> ()
    | _ -> Alcotest.failf "%s: length differs from line %d" golden n
  in
  first_diff 1 (lines expected, lines (String.concat "" rendered))

let test_registry_lookup () =
  Alcotest.(check bool) "finds e3" true (Experiments.find "E3" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.find "e99" = None);
  Alcotest.(check int) "catalogue size" 25 (List.length Experiments.all)

let run_tables id =
  match Experiments.find id with
  | Some e -> e.Experiments.run ~quick:true ~seed:7
  | None -> Alcotest.failf "experiment %s missing" id

let test_deterministic_tables () =
  List.iter
    (fun id ->
      let strings tables = List.map Tablefmt.to_string tables in
      let a = strings (run_tables id) and b = strings (run_tables id) in
      Alcotest.(check (list string)) (id ^ " deterministic") a b)
    [ "e1"; "e5"; "e11"; "e18" ]

(* shape pins: the conclusions EXPERIMENTS.md reports must survive *)

let test_e1_message_heavier_than_call () =
  match run_tables "e1" with
  | [ t ] ->
    let call = fcell t ~row:0 ~col:1 in
    let msg_local = fcell t ~row:1 ~col:1 in
    Alcotest.(check bool) "call is cycles-cheap" true (call < 10.0);
    Alcotest.(check bool) "message within 100x of a call" true
      (msg_local < 100.0 *. call);
    Alcotest.(check bool) "message costs more than a call" true
      (msg_local > call)
  | _ -> Alcotest.fail "e1 shape"

let test_e3_message_kernel_wins_at_scale () =
  match run_tables "e3" with
  | [ t; _note ] ->
    let rows = Tablefmt.rows t in
    let last = List.length rows - 1 in
    let msg = fcell t ~row:last ~col:1 and lock = fcell t ~row:last ~col:2 in
    Alcotest.(check bool)
      (Printf.sprintf "msg (%.0f) > 2x lock (%.0f) at max cores" msg lock)
      true
      (msg > 2.0 *. lock)
  | _ -> Alcotest.fail "e3 shape"

let test_e7_channels_beat_signals () =
  match run_tables "e7" with
  | [ t ] ->
    let signal_mean = fcell t ~row:0 ~col:1 in
    let chan_mean = fcell t ~row:1 ~col:1 in
    let signal_waste = fcell t ~row:0 ~col:3 in
    Alcotest.(check bool) "channel latency lower" true
      (chan_mean < signal_mean);
    Alcotest.(check bool) "signals waste work" true (signal_waste > 0.0)
  | _ -> Alcotest.fail "e7 shape"

let test_e18_weight_ordering () =
  match run_tables "e18" with
  | [ t ] ->
    let chan = fcell t ~row:0 ~col:1 in
    let l4 = fcell t ~row:1 ~col:1 in
    let mach = fcell t ~row:2 ~col:1 in
    Alcotest.(check bool) "chan < l4 < mach" true (chan < l4 && l4 < mach)
  | _ -> Alcotest.fail "e18 shape"

let () =
  Alcotest.run "chorus-experiments"
    [ ( "smoke",
        [ Alcotest.test_case "all run and fill tables" `Slow
            test_all_run_and_fill;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "deterministic" `Quick test_deterministic_tables ] );
      ( "shape-pins",
        [ Alcotest.test_case "e1 message vs call" `Quick
            test_e1_message_heavier_than_call;
          Alcotest.test_case "e3 crossover direction" `Quick
            test_e3_message_kernel_wins_at_scale;
          Alcotest.test_case "e7 signals waste" `Quick
            test_e7_channels_beat_signals;
          Alcotest.test_case "e18 weight classes" `Quick
            test_e18_weight_ordering ] ) ]
