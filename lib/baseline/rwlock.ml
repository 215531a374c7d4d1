module Engine = Chorus.Engine
module Deque = Chorus_util.Deque
module Coherence = Chorus_machine.Coherence

type wait_kind = Reader | Writer

type waiter = { waker : unit Engine.waker; kind : wait_kind }

type t = {
  line : Coherence.line;
  mutable active_readers : int;
  mutable writer : bool;
  mutable writer_until : int;
      (** virtual end of the latest writer section (see Lock) *)
  mutable readers_until : int;
      (** virtual end of the latest reader section *)
  waiters : waiter Deque.t;
  rw_label : string;
  mutable acquisitions : int;
  mutable contended : int;
}

let create ?(label = "rwlock") () =
  { line = Coherence.line ();
    active_readers = 0;
    writer = false;
    writer_until = 0;
    readers_until = 0;
    waiters = Deque.create ();
    rw_label = label;
    acquisitions = 0;
    contended = 0 }

let charge_rmw t eng =
  let self = Engine.self eng in
  Engine.charge eng
    (Coherence.rmw ~now:(Engine.now eng) (Engine.machine eng) t.line
       (Engine.fiber_core self))

let writer_queued t =
  let any = ref false in
  Deque.iter (fun w -> if w.kind = Writer then any := true) t.waiters;
  !any

let acquire_read t =
  let eng = Engine.current () in
  charge_rmw t eng;
  t.acquisitions <- t.acquisitions + 1;
  if (not t.writer) && not (writer_queued t) then begin
    (* stall past any virtually in-progress writer section *)
    let now = Engine.now eng in
    if t.writer_until > now then begin
      t.contended <- t.contended + 1;
      Engine.charge eng (t.writer_until - now)
    end;
    t.active_readers <- t.active_readers + 1
  end
  else begin
    t.contended <- t.contended + 1;
    Engine.suspend eng ~tag:("rdlock:" ^ t.rw_label) (fun w ->
        Deque.push_back t.waiters { waker = w; kind = Reader })
  end

let acquire_write t =
  let eng = Engine.current () in
  charge_rmw t eng;
  t.acquisitions <- t.acquisitions + 1;
  if (not t.writer) && t.active_readers = 0 then begin
    let now = Engine.now eng in
    let barrier = max t.writer_until t.readers_until in
    if barrier > now then begin
      t.contended <- t.contended + 1;
      Engine.charge eng (barrier - now)
    end;
    t.writer <- true
  end
  else begin
    t.contended <- t.contended + 1;
    Engine.suspend eng ~tag:("wrlock:" ^ t.rw_label) (fun w ->
        Deque.push_back t.waiters { waker = w; kind = Writer })
  end

(* Wake the next writer, or a batch of leading readers. *)
let rec wake_next t eng =
  if not (Deque.is_empty t.waiters) then
    match (Deque.front t.waiters).kind with
    | Writer ->
      let w = Deque.take_front t.waiters in
      if Engine.waker_live w.waker then begin
        t.writer <- true;
        Engine.wake_at w.waker (Engine.now eng) ()
      end
      else wake_next t eng
    | Reader ->
      while
        (not (Deque.is_empty t.waiters))
        && (Deque.front t.waiters).kind = Reader
      do
        let w = Deque.take_front t.waiters in
        if Engine.waker_live w.waker then begin
          t.active_readers <- t.active_readers + 1;
          Engine.wake_at w.waker (Engine.now eng) ()
        end
      done;
      if t.active_readers = 0 then wake_next t eng

let release_read t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if t.active_readers <= 0 then
    invalid_arg ("Rwlock.release_read: no readers on " ^ t.rw_label);
  t.active_readers <- t.active_readers - 1;
  t.readers_until <- max t.readers_until (Engine.now eng);
  if t.active_readers = 0 then wake_next t eng

let release_write t =
  let eng = Engine.current () in
  charge_rmw t eng;
  if not t.writer then
    invalid_arg ("Rwlock.release_write: no writer on " ^ t.rw_label);
  t.writer <- false;
  t.writer_until <- max t.writer_until (Engine.now eng);
  wake_next t eng

let with_read t f =
  acquire_read t;
  Fun.protect ~finally:(fun () -> release_read t) f

let with_write t f =
  acquire_write t;
  Fun.protect ~finally:(fun () -> release_write t) f

let readers t = t.active_readers

let acquisitions t = t.acquisitions

let contended t = t.contended
