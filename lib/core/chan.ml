module Deque = Chorus_util.Deque
module Rng = Chorus_util.Rng
module Machine = Chorus_machine.Machine
module Cost = Chorus_machine.Cost

exception Closed

type capacity = Rendezvous | Bounded of int | Unbounded

(* Offers: a blocked [send]/[recv], or one case of a blocked [choose].
   The blocked fiber's one-shot waker is the only commit point.  An
   offer is live iff its waker is ([Engine.waker_live]); whoever pops a
   live offer off its queue uses the waker in the same host step, which
   turns stale every other offer registered with that waker (the other
   cases of the same choice).  [rk] maps the received value to the
   suspension's result ([Fun.id] for a plain recv, the case's thunk for
   a choice); [done_] is what a sender resumes with. *)
type 'a rx =
  | Rx : {
      rw : 'w Engine.waker;
      rk : 'a -> 'w;
      rcore : int;
      rtime : int;
    }
      -> 'a rx

type 'a tx =
  | Tx : {
      tw : 'w Engine.waker;
      tv : 'a;
      twords : int;
      tcore : int;
      ttime : int;
      done_ : 'w;
    }
      -> 'a tx

let rx_live (Rx r) = Engine.waker_live r.rw

let tx_live (Tx t) = Engine.waker_live t.tw

type 'a slot = { sl_val : 'a; sl_words : int; sl_core : int; sl_time : int }

type 'a t = {
  chid : int;
  chlabel : string option;
      (** [None] for an anonymous channel, whose label ["chan-<id>"] is
          built only when something asks for it *)
  cap : capacity;
  buf : 'a slot Deque.t;
  txq : 'a tx Deque.t;
  rxq : 'a rx Deque.t;
  mutable closed : bool;
}

let count_live live q =
  let n = ref 0 in
  Deque.iter (fun o -> if live o then incr n) q;
  !n

let waiting_senders c = count_live tx_live c.txq

let waiting_receivers c = count_live rx_live c.rxq

let make_chan cap label =
  let eng = Engine.current () in
  let chid = Engine.fresh_id eng in
  let c =
    { chid; chlabel = label; cap; buf = Deque.create (); txq = Deque.create ();
      rxq = Deque.create (); closed = false }
  in
  (* Only explicitly labelled channels register with the snapshot
     layer: anonymous one-shots (reply channels) would swamp the
     registry without naming anything a debugger can recognise.
     Registration is host-side only — no charge, no trace event. *)
  (match label with
  | None -> ()
  | Some l ->
    Inspect.register ~name:(Printf.sprintf "chan/%s#%d" l c.chid)
      (fun () ->
        Inspect.Assoc
          [ ("queued", Inspect.Int (Deque.length c.buf));
            ("capacity",
             Inspect.Int
               (match c.cap with
               | Rendezvous -> 0
               | Bounded n -> n
               | Unbounded -> -1));
            ("waiting_senders", Inspect.Int (waiting_senders c));
            ("waiting_receivers", Inspect.Int (waiting_receivers c));
            ("closed", Inspect.Bool c.closed) ]));
  c

let rendezvous ?label () = make_chan Rendezvous label

let buffered ?label n =
  if n < 1 then invalid_arg "Chan.buffered: capacity must be >= 1";
  make_chan (Bounded n) label

let unbounded ?label () = make_chan Unbounded label

let label c =
  match c.chlabel with
  | Some l -> l
  | None -> "chan-" ^ string_of_int c.chid

let id c = c.chid

let is_closed c = c.closed

let length c = Deque.length c.buf

(* The buffer can take one more value. *)
let room c =
  match c.cap with
  | Unbounded -> true
  | Bounded n -> Deque.length c.buf < n
  | Rendezvous -> false

(* Prune stale offers at the front of the queue and report whether a
   live one remains there.  A caller that goes on to [Deque.take_front]
   it must use the offer's waker before anything else runs. *)
let rec some_live live q =
  (not (Deque.is_empty q))
  && (live (Deque.front q)
     || begin
       ignore (Deque.take_front q);
       some_live live q
     end)

let deliver (Rx r) ~time v = Engine.wake_at r.rw time (r.rk v)

let release (Tx t) ~time = Engine.wake_at t.tw time t.done_

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                     *)

let count_message eng c ~src ~dst ~words =
  let cnt = Engine.counters eng in
  cnt.Engine.msgs <- cnt.Engine.msgs + 1;
  cnt.Engine.words_copied <- cnt.Engine.words_copied + words;
  let h = Machine.hops (Engine.machine eng) src dst in
  cnt.Engine.hops <- cnt.Engine.hops + h;
  if h > 0 then cnt.Engine.remote_msgs <- cnt.Engine.remote_msgs + 1;
  if Engine.tracing eng then
    Engine.emit eng (Trace.Send { chan = c.chid; words; src; dst })

(* Cycles from "value leaves the sender core" to "receiver has it":
   transit plus the receive-side fixed cost.  The sender-side
   injection and payload copy are charged separately at send time. *)
let transit eng ~src ~dst =
  let c = Engine.costs eng in
  let h = Machine.hops (Engine.machine eng) src dst in
  (h * c.Cost.msg_per_hop) + c.Cost.msg_receive

let charge_send_side eng ~words =
  let c = Engine.costs eng in
  Engine.charge eng (c.Cost.msg_inject + (words * c.Cost.msg_per_word))

(* When a buffered slot frees, promote the first waiting sender's
   value into the buffer and unblock that sender. *)
let refill c ~time =
  if room c && some_live tx_live c.txq then begin
    let (Tx t as tx) = Deque.take_front c.txq in
    Deque.push_back c.buf
      { sl_val = t.tv; sl_words = t.twords; sl_core = t.tcore;
        sl_time = time };
    release tx ~time
  end

(* ------------------------------------------------------------------ *)
(* Send                                                                *)

let send_fast eng c v ~words ~src ~ts =
  (* returns true when the send completed without blocking *)
  if some_live rx_live c.rxq then begin
    let (Rx r as rx) = Deque.take_front c.rxq in
    count_message eng c ~src ~dst:r.rcore ~words;
    let lat = transit eng ~src ~dst:r.rcore in
    deliver rx ~time:(max ts r.rtime + lat) v;
    true
  end
  else
    room c
    && begin
      Deque.push_back c.buf
        { sl_val = v; sl_words = words; sl_core = src; sl_time = ts };
      count_message eng c ~src ~dst:src ~words;
      true
    end

let send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  charge_send_side eng ~words;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  if not (send_fast eng c v ~words ~src ~ts) then
    Engine.suspend eng ~tag:("send:" ^ label c) (fun w ->
        Deque.push_back c.txq
          (Tx { tw = w; tv = v; twords = words; tcore = src; ttime = ts;
                done_ = () }))

(* A send can complete without blocking: a live receiver waits or the
   buffer has room. *)
let send_ready c = some_live rx_live c.rxq || room c

let try_send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  if send_ready c then begin
    charge_send_side eng ~words;
    let ok = send_fast eng c v ~words ~src ~ts in
    assert ok;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Receive                                                             *)

(* A value is available if something is buffered, a live sender waits,
   or the channel is closed (in which case consuming raises). *)
let recv_ready c =
  (not (Deque.is_empty c.buf)) || some_live tx_live c.txq || c.closed

let recv_fast eng c ~me ~tr =
  (* call only when [recv_ready]; completes the receive and returns the
     value, raising [Closed] on a drained closed channel *)
  if not (Deque.is_empty c.buf) then begin
    let sl = Deque.take_front c.buf in
    let completion = max tr sl.sl_time + transit eng ~src:sl.sl_core ~dst:me in
    Engine.charge eng (completion - tr);
    refill c ~time:completion;
    if Engine.tracing eng then Engine.emit eng (Trace.Recv { chan = c.chid });
    sl.sl_val
  end
  else if some_live tx_live c.txq then begin
    let (Tx t as tx) = Deque.take_front c.txq in
    let completion = max tr t.ttime + transit eng ~src:t.tcore ~dst:me in
    Engine.charge eng (completion - tr);
    count_message eng c ~src:t.tcore ~dst:me ~words:t.twords;
    release tx ~time:completion;
    if Engine.tracing eng then Engine.emit eng (Trace.Recv { chan = c.chid });
    t.tv
  end
  else if c.closed then raise Closed
  else failwith "Chan.recv_fast: not ready"

let recv c =
  let eng = Engine.current () in
  let me = Engine.fiber_core (Engine.self eng) in
  let tr = Engine.now eng in
  if recv_ready c then recv_fast eng c ~me ~tr
  else
    Engine.suspend eng ~tag:("recv:" ^ label c) (fun w ->
        Deque.push_back c.rxq (Rx { rw = w; rk = Fun.id; rcore = me; rtime = tr }))

let try_recv c =
  let eng = Engine.current () in
  let me = Engine.fiber_core (Engine.self eng) in
  let tr = Engine.now eng in
  if not (Deque.is_empty c.buf) || some_live tx_live c.txq then
    Some (recv_fast eng c ~me ~tr)
  else if c.closed then raise Closed
  else None

(* ------------------------------------------------------------------ *)
(* Close                                                               *)

let close c =
  if not c.closed then begin
    let t = Engine.now (Engine.current ()) in
    c.closed <- true;
    while some_live rx_live c.rxq do
      let (Rx r) = Deque.take_front c.rxq in
      Engine.wake_err_at r.rw t Closed
    done;
    while some_live tx_live c.txq do
      let (Tx tx) = Deque.take_front c.txq in
      Engine.wake_err_at tx.tw t Closed
    done
  end

(* ------------------------------------------------------------------ *)
(* Choice                                                              *)

type 'r case =
  | Recv : 'a t * ('a -> 'r) -> 'r case
  | Send : 'a t * 'a * int * (unit -> 'r) -> 'r case
  | Timeout : int * (unit -> 'r) -> 'r case
  | Default : (unit -> 'r) -> 'r case

let recv_case c f = Recv (c, f)

let send_case ?(words = 2) c v h = Send (c, v, words, h)

let after n h =
  if n < 0 then invalid_arg "Chan.after: negative delay";
  Timeout (n, h)

let default h = Default h

type strategy = Commit | Poll of int

let case_ready = function
  | Recv (c, _) -> recv_ready c
  | Send (c, _, _, _) -> c.closed || send_ready c
  | Timeout _ | Default _ -> false

(* Run a ready channel case: a ready case never blocks. *)
let exec_case = function
  | Recv (c, f) -> f (recv c)
  | Send (c, v, words, h) ->
    send ~words c v;
    h ()
  | Timeout (_, h) | Default h -> h ()

(* Register one case of a blocked choice.  Every offer carries the
   choice's waker, so the first partner, timer or close to use it
   commits the choice and the other offers go stale. *)
let register eng w = function
  | Recv (c, f) ->
    let me = Engine.waker_fiber w |> Engine.fiber_core in
    Deque.push_back c.rxq
      (Rx { rw = w; rk = (fun v () -> f v); rcore = me;
            rtime = Engine.now eng })
  | Send (c, v, words, h) ->
    let src = Engine.waker_fiber w |> Engine.fiber_core in
    charge_send_side eng ~words;
    Deque.push_back c.txq
      (Tx { tw = w; tv = v; twords = words; tcore = src;
            ttime = Engine.now eng; done_ = h })
  | Timeout (n, h) ->
    let fire = Engine.now eng + n in
    Engine.schedule_at eng fire (fun () -> Engine.wake_at w fire h)
  | Default _ -> ()

let choose_commit cases =
  let eng = Engine.current () in
  let costs = Engine.costs eng in
  (* scanning k options touches k channel headers *)
  Engine.charge eng (List.length cases * costs.Cost.cache_hit);
  let ready = List.filter case_ready cases in
  match ready with
  | _ :: _ ->
    let arr = Array.of_list ready in
    exec_case arr.(Rng.int (Engine.rng eng) (Array.length arr))
  | [] -> (
    match List.find_opt (function Default _ -> true | _ -> false) cases with
    | Some d -> exec_case d
    | None ->
      let thunk =
        Engine.suspend eng ~tag:"choose" (fun w ->
            List.iter (register eng w) cases)
      in
      thunk ())

let choose_poll interval cases =
  let eng = Engine.current () in
  let costs = Engine.costs eng in
  let start = Engine.now eng in
  (* timeout arms become absolute deadlines checked on every poll *)
  let rec poll () =
    Engine.charge eng (List.length cases * costs.Cost.cache_miss);
    let now = Engine.now eng in
    let ready =
      List.filter
        (function
          | Timeout (n, _) -> now - start >= n
          | case -> case_ready case)
        cases
    in
    match ready with
    | _ :: _ ->
      let arr = Array.of_list ready in
      exec_case arr.(Rng.int (Engine.rng eng) (Array.length arr))
    | [] -> (
      match List.find_opt (function Default _ -> true | _ -> false) cases with
      | Some d -> exec_case d
      | None ->
        Engine.sleep eng interval;
        poll ())
  in
  poll ()

let choose ?(strategy = Commit) cases =
  if cases = [] then invalid_arg "Chan.choose: no cases";
  let ndefaults =
    List.length (List.filter (function Default _ -> true | _ -> false) cases)
  in
  if ndefaults > 1 then invalid_arg "Chan.choose: multiple defaults";
  match strategy with
  | Commit -> choose_commit cases
  | Poll interval ->
    if interval <= 0 then invalid_arg "Chan.choose: poll interval";
    choose_poll interval cases
