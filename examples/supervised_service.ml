(* Supervised services: the Erlang-style "aim for not failing"
   posture (paper Section 5).  A flaky key-value service crashes every
   so often; a supervisor restarts it on the same endpoint, so clients
   only ever notice a timeout on the requests caught in the crash.

   Run with:  dune exec examples/supervised_service.exe *)

module Machine = Chorus_machine.Machine
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Svc = Chorus_svc.Svc
module Supervisor = Chorus_kernel.Supervisor

type req = Put of string * int | Get of string

type resp = Ok_put | Found of int | Missing

let flaky_kv ep =
  (* state is rebuilt empty on restart: a deliberately simple service
     so the demo shows the supervision mechanics, not persistence *)
  fun () ->
    Fiber.spawn ~label:"kv" ~daemon:true (fun () ->
        let table = Hashtbl.create 16 in
        let served = ref 0 in
        Svc.serve ep (fun req ->
            incr served;
            (* every 25th request trips a bug *)
            if !served mod 25 = 0 then failwith "kv: internal assertion";
            Fiber.work 200;
            match req with
            | Put (k, v) ->
              Hashtbl.replace table k v;
              Ok_put
            | Get k -> (
              match Hashtbl.find_opt table k with
              | Some v -> Found v
              | None -> Missing)))

let call_with_timeout ep req =
  let reply = Svc.call_async ep req in
  Chan.choose
    [ Chan.recv_case reply (function
        | `Ok r -> Some r
        | `Busy | `Expired -> None);
      Chan.after 100_000 (fun () -> None) ]

let () =
  let stats =
    Runtime.run
      (Runtime.config ~seed:5 (Machine.mesh ~cores:8))
      (fun () ->
        let ep = Svc.create ~subsystem:"demo" ~label:"kv" () in
        let sup =
          Supervisor.start ~max_restarts:50 Supervisor.One_for_one
            [ { Supervisor.cname = "kv"; cstart = flaky_kv ep } ]
        in
        Fiber.sleep 1_000;
        let ok = ref 0 and timeouts = ref 0 in
        for i = 1 to 200 do
          let key = Printf.sprintf "k%d" (i mod 17) in
          (match call_with_timeout ep (Put (key, i)) with
          | Some Ok_put -> incr ok
          | Some _ -> ()
          | None -> incr timeouts);
          match call_with_timeout ep (Get key) with
          | Some (Found _) | Some Missing -> incr ok
          | Some Ok_put -> ()
          | None -> incr timeouts
        done;
        Printf.printf "requests ok:       %d\n" !ok;
        Printf.printf "requests timed out:%d\n" !timeouts;
        Printf.printf "service restarts:  %d\n" (Supervisor.restarts sup);
        Printf.printf "restart log (first 5):\n";
        List.iteri
          (fun i (time, name) ->
            if i < 5 then Printf.printf "  [%8d] restarted %s\n" time name)
          (Supervisor.restart_log sup);
        Supervisor.stop sup)
  in
  Printf.printf "\nsimulated time: %d cycles\n" stats.Chorus.Runstats.makespan
