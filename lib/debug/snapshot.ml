module Inspect = Chorus.Inspect
module Engine = Chorus.Engine
module Metrics = Chorus_obs.Metrics

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)

let value_of_metric = function
  | Metrics.Counter n ->
    Inspect.Assoc [ ("kind", Inspect.String "counter"); ("value", Inspect.Int n) ]
  | Metrics.Gauge { last; peak; mean } ->
    Inspect.Assoc
      [ ("kind", Inspect.String "gauge");
        ("last", Inspect.Int last);
        ("peak", Inspect.Int peak);
        ("mean", Inspect.Float mean) ]
  | Metrics.Histo { count; mean; p50; p95; p99; max } ->
    Inspect.Assoc
      [ ("kind", Inspect.String "histogram");
        ("count", Inspect.Int count);
        ("mean", Inspect.Float mean);
        ("p50", Inspect.Int p50);
        ("p95", Inspect.Int p95);
        ("p99", Inspect.Int p99);
        ("max", Inspect.Int max) ]

let value_of_metrics snap =
  Inspect.Assoc
    (List.map
       (fun ((sub, name), v) -> (sub ^ "/" ^ name, value_of_metric v))
       snap)

let capture ?at eng =
  (* a paused stepped run is not "current" on any domain: make it so
     while its providers run (some read the virtual clock), and read
     the providers and metrics out of the engine's own context *)
  Engine.with_current eng @@ fun () ->
  let ctx = Engine.ctx eng in
  let metrics =
    match Metrics.installed_in ctx with
    | None -> Inspect.Null
    | Some reg -> value_of_metrics (Metrics.snapshot reg)
  in
  Inspect.Assoc
    [ ("at", Inspect.Int (match at with Some a -> a | None -> Engine.now eng));
      ("engine", Engine.inspect eng);
      ("subsystems", Inspect.Assoc (Inspect.snapshot_in ctx));
      ("metrics", metrics) ]

let render = Inspect.render

let to_json = Inspect.to_json

(* ------------------------------------------------------------------ *)
(* Structural diff                                                     *)

type entry = { path : string; left : string option; right : string option }

let scalar_str = function
  | Inspect.Null -> "null"
  | Inspect.Bool b -> string_of_bool b
  | Inspect.Int n -> string_of_int n
  | Inspect.Float f -> Printf.sprintf "%.6g" f
  | Inspect.String s -> s
  | (Inspect.List _ | Inspect.Assoc _) as v -> Inspect.to_json v

let diff a b =
  let acc = ref [] in
  let emit path l r = acc := { path; left = l; right = r } :: !acc in
  let rec go path a b =
    match (a, b) with
    | Inspect.Assoc fa, Inspect.Assoc fb ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (k, va) ->
          Hashtbl.replace seen k ();
          let sub = if path = "" then k else path ^ "/" ^ k in
          match List.assoc_opt k fb with
          | Some vb -> go sub va vb
          | None -> emit sub (Some (scalar_str va)) None)
        fa;
      List.iter
        (fun (k, vb) ->
          if not (Hashtbl.mem seen k) then
            let sub = if path = "" then k else path ^ "/" ^ k in
            emit sub None (Some (scalar_str vb)))
        fb
    | Inspect.List la, Inspect.List lb ->
      let rec items i la lb =
        let sub = Printf.sprintf "%s[%d]" path i in
        match (la, lb) with
        | [], [] -> ()
        | x :: la', y :: lb' ->
          go sub x y;
          items (i + 1) la' lb'
        | x :: la', [] ->
          emit sub (Some (scalar_str x)) None;
          items (i + 1) la' []
        | [], y :: lb' ->
          emit sub None (Some (scalar_str y));
          items (i + 1) [] lb'
      in
      items 0 la lb
    | a, b ->
      (* scalars, or a kind mismatch (collapsed to compact JSON) *)
      if a <> b then emit path (Some (scalar_str a)) (Some (scalar_str b))
  in
  go "" a b;
  List.rev !acc

let render_diff entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%s: %s -> %s\n" e.path
           (Option.value ~default:"(absent)" e.left)
           (Option.value ~default:"(absent)" e.right)))
    entries;
  Buffer.contents buf

let value_of_diff entries =
  Inspect.List
    (List.map
       (fun e ->
         Inspect.Assoc
           [ ("path", Inspect.String e.path);
             ("a",
              match e.left with
              | None -> Inspect.Null
              | Some s -> Inspect.String s);
             ("b",
              match e.right with
              | None -> Inspect.Null
              | Some s -> Inspect.String s) ])
       entries)
