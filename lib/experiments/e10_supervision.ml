(* E10 — partial failure and "aiming for not failing" (Section 5, and
   the Erlang AXD301 nine-nines citation in Section 1).

   A bank of 8 request-processing services is driven by 24 clients
   (every call guarded by a timeout — lost requests count as failures).
   A fault injector crashes random services at exponentially
   distributed intervals.  Three recovery postures: none (dead services
   stay dead), one_for_one supervision, one_for_all supervision.

   Availability = successful requests / issued; "nines" is
   -log10(1 - availability).  The Erlang claim is that supervision
   turns component crashes from outage into bounded request loss. *)

open Exp_common
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Svc = Chorus_svc.Svc
module Supervisor = Chorus_kernel.Supervisor
module Faults = Chorus_workload.Faults
module Rng = Chorus_util.Rng

let nservices = 8

let nclients = 24

type posture = No_recovery | One_one | One_all

let posture_name = function
  | No_recovery -> "none (fail-stop)"
  | One_one -> "one_for_one"
  | One_all -> "one_for_all"

let service_body ep () =
  Svc.start ep (fun v ->
      (* the handler has an internal scheduling point, so a crash can
         land mid-request and lose the in-flight work *)
      Fiber.work 150;
      Fiber.yield ();
      Fiber.work 150;
      v + 1)

let run_posture ~quick ~seed ~crash_interval posture =
  let ops = pick ~quick 400 2_000 in
  let result =
    run ~seed ~cores:32 (fun () ->
        let eps =
          Array.init nservices (fun i ->
              Svc.create ~subsystem:"e10" ~label:(Printf.sprintf "svc-%d" i)
                ())
        in
        (* registry of the current incarnation of each service *)
        let current = Array.make nservices None in
        let start i =
          let f = service_body eps.(i) () in
          current.(i) <- Some f;
          f
        in
        let sup =
          match posture with
          | No_recovery ->
            Array.iteri (fun i _ -> ignore (start i)) eps;
            None
          | One_one | One_all ->
            let strategy =
              if posture = One_one then Supervisor.One_for_one
              else Supervisor.One_for_all
            in
            Some
              (Supervisor.start ~max_restarts:1_000_000 strategy
                 (List.init nservices (fun i ->
                      { Supervisor.cname = Printf.sprintf "svc-%d" i;
                        cstart = (fun () -> start i) })))
        in
        (* fault injection: kill a random live service *)
        let vic_rng = Rng.make (seed + 99) in
        let injector =
          Faults.start
            { Faults.mean_interval = crash_interval;
              crashes = pick ~quick 60 300;
              seed = seed + 7 }
            ~victims:(fun () ->
              current.(Rng.int vic_rng nservices))
        in
        ignore injector;
        (* clients: calls with timeouts; a timeout is a failed request *)
        let succeeded = ref 0 and failed = ref 0 in
        let clients =
          List.init nclients (fun c ->
              Fiber.spawn ~label:(Printf.sprintf "client-%d" c) (fun () ->
                  let rng = Rng.make (seed + c) in
                  for _ = 1 to ops do
                    Fiber.work 2_000;
                    let ep = eps.(Rng.int rng nservices) in
                    let reply = Svc.call_async ep 1 in
                    let ok =
                      Chan.choose
                        [ Chan.recv_case reply (fun _ -> true);
                          Chan.after 50_000 (fun () -> false) ]
                    in
                    if ok then incr succeeded else incr failed
                  done))
        in
        List.iter (fun f -> ignore (Fiber.join f)) clients;
        let restarts =
          match sup with Some s -> Supervisor.restarts s | None -> 0
        in
        (!succeeded, !failed, restarts))
  in
  fst result

let nines availability =
  if availability >= 1.0 then 9.9
  else -.log10 (1.0 -. availability)

let run ~quick ~seed =
  let t =
    Tablefmt.create
      ~title:
        "E10: availability under service crashes (8 services, 24 clients)"
      ~columns:
        [ ("crash interval", Tablefmt.Right);
          ("posture", Tablefmt.Left);
          ("ok", Tablefmt.Right);
          ("lost", Tablefmt.Right);
          ("availability", Tablefmt.Right);
          ("nines", Tablefmt.Right);
          ("restarts", Tablefmt.Right) ]
  in
  List.iter
    (fun crash_interval ->
      List.iter
        (fun posture ->
          let ok, lost, restarts =
            run_posture ~quick ~seed ~crash_interval posture
          in
          let avail = float_of_int ok /. float_of_int (ok + lost) in
          Tablefmt.add_row t
            [ string_of_int crash_interval;
              posture_name posture;
              string_of_int ok;
              string_of_int lost;
              Printf.sprintf "%.5f" avail;
              Tablefmt.cell_float (nines avail);
              string_of_int restarts ])
        [ No_recovery; One_one; One_all ])
    [ 400_000; 100_000; 25_000 ];
  [ t ]
