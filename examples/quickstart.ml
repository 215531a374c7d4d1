(* Quickstart: the lightweight messages-and-channels model in one
   page — fibers, the three channel flavours, choice, and RPC, on a
   simulated 16-core mesh.

   Run with:  dune exec examples/quickstart.exe *)

module Machine = Chorus_machine.Machine
module Runtime = Chorus.Runtime
module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Svc = Chorus_svc.Svc

let () =
  let cfg = Runtime.config ~seed:1 (Machine.mesh ~cores:16) in
  let stats =
    Runtime.run cfg (fun () ->
        (* 1. start a fiber: the paper's `start { foo(); }` *)
        let greeter =
          Fiber.spawn (fun () ->
              Printf.printf "[%8d] hello from fiber %d on core %d\n"
                (Fiber.now ())
                (Fiber.id (Fiber.self ()))
                (Fiber.core (Fiber.self ())))
        in
        ignore (Fiber.join greeter);

        (* 2. rendezvous channel: `c <- v` blocks until `v <- c` *)
        let c = Chan.rendezvous ~label:"numbers" () in
        let producer =
          Fiber.spawn (fun () ->
              for i = 1 to 3 do
                Chan.send c i
              done)
        in
        for _ = 1 to 3 do
          Printf.printf "[%8d] received %d\n" (Fiber.now ()) (Chan.recv c)
        done;
        ignore (Fiber.join producer);

        (* 3. channels through channels: plumb a private data channel
           via a control channel, then stream directly *)
        let control = Chan.rendezvous ~label:"control" () in
        let _server =
          Fiber.spawn ~daemon:true (fun () ->
              let data = Chan.recv control in
              for i = 1 to 5 do
                Chan.send data (i * i)
              done;
              Chan.close data)
        in
        let data = Chan.buffered ~label:"data" 2 in
        Chan.send control data;
        let rec drain sum =
          match Chan.recv data with
          | v -> drain (sum + v)
          | exception Chan.Closed -> sum
        in
        Printf.printf "[%8d] plumbed stream summed to %d\n" (Fiber.now ())
          (drain 0);

        (* 4. choice: take whichever source is ready first, with a
           timeout arm *)
        let fast = Chan.rendezvous () and slow = Chan.rendezvous () in
        let _f =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 1_000;
              Chan.send fast "fast source")
        in
        let _s =
          Fiber.spawn ~daemon:true (fun () ->
              Fiber.sleep 50_000;
              Chan.send slow "slow source")
        in
        let winner =
          Chan.choose
            [ Chan.recv_case fast (fun s -> s);
              Chan.recv_case slow (fun s -> s);
              Chan.after 100_000 (fun () -> "timeout") ]
        in
        Printf.printf "[%8d] choice picked: %s\n" (Fiber.now ()) winner;

        (* 5. a function call is a message pair (paper Section 3) *)
        let double = Svc.create ~subsystem:"demo" ~label:"double" () in
        let _svc = Svc.start double (fun x -> 2 * x) in
        Printf.printf "[%8d] rpc double(21) = %d\n" (Fiber.now ())
          (Svc.call double 21))
  in
  Printf.printf "\nrun complete: %d virtual cycles, %d messages (%d remote)\n"
    stats.Chorus.Runstats.makespan stats.Chorus.Runstats.msgs
    stats.Chorus.Runstats.remote_msgs
