module Deque = Chorus_util.Deque
module Rng = Chorus_util.Rng
module Machine = Chorus_machine.Machine
module Cost = Chorus_machine.Cost

exception Closed

type capacity = Rendezvous | Bounded of int | Unbounded

(* A waiting (blocked or choice-registered) receiver.  [live] is a
   non-destructive staleness probe; [claim] consumes the offer and
   returns false when it had gone stale (its choice committed
   elsewhere, or its fiber was killed).  After a successful [claim],
   exactly one of [deliver]/[abort] must be invoked. *)
type 'a rx = {
  rx_live : unit -> bool;
  rx_claim : unit -> bool;
  rx_deliver : time:int -> 'a -> unit;
  rx_abort : time:int -> exn -> unit;
  rx_core : int;
  rx_time : int;
}

(* A waiting sender together with the value it offers. *)
type 'a tx = {
  tx_live : unit -> bool;
  tx_claim : unit -> bool;
  tx_val : 'a;
  tx_words : int;
  tx_core : int;
  tx_time : int;
  tx_done : time:int -> unit;
  tx_abort : time:int -> exn -> unit;
}

type 'a slot = { sl_val : 'a; sl_words : int; sl_core : int; sl_time : int }

type 'a t = {
  chid : int;
  chlabel : string option;
      (** [None] for an anonymous channel, whose label ["chan-<id>"] is
          built only when something asks for it *)
  cap : capacity;
  buf : 'a slot Queue.t;
  txq : 'a tx Deque.t;
  rxq : 'a rx Deque.t;
  mutable closed : bool;
}

let make_chan cap label =
  let eng = Engine.current () in
  let chid = Engine.fresh_id eng in
  let c =
    { chid; chlabel = label; cap; buf = Queue.create (); txq = Deque.create ();
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
        let live_tx = ref 0 and live_rx = ref 0 in
        Deque.iter (fun tx -> if tx.tx_live () then incr live_tx) c.txq;
        Deque.iter (fun rx -> if rx.rx_live () then incr live_rx) c.rxq;
        Inspect.Assoc
          [ ("queued", Inspect.Int (Queue.length c.buf));
            ("capacity",
             Inspect.Int
               (match c.cap with
               | Rendezvous -> 0
               | Bounded n -> n
               | Unbounded -> -1));
            ("waiting_senders", Inspect.Int !live_tx);
            ("waiting_receivers", Inspect.Int !live_rx);
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

let length c = Queue.length c.buf

let waiting_senders c =
  let n = ref 0 in
  Deque.iter (fun tx -> if tx.tx_live () then incr n) c.txq;
  !n

let waiting_receivers c =
  let n = ref 0 in
  Deque.iter (fun rx -> if rx.rx_live () then incr n) c.rxq;
  !n

(* Claim the first live offer, discarding stale ones. *)
let rec pop_live_rx c =
  match Deque.pop_front c.rxq with
  | None -> None
  | Some rx -> if rx.rx_claim () then Some rx else pop_live_rx c

let rec pop_live_tx c =
  match Deque.pop_front c.txq with
  | None -> None
  | Some tx -> if tx.tx_claim () then Some tx else pop_live_tx c

(* Non-destructive probe: prune stale entries at the front, report
   whether a live one remains. *)
let rec some_live_rx c =
  match Deque.peek_front c.rxq with
  | None -> false
  | Some rx ->
    if rx.rx_live () then true
    else begin
      ignore (Deque.pop_front c.rxq);
      some_live_rx c
    end

let rec some_live_tx c =
  match Deque.peek_front c.txq with
  | None -> false
  | Some tx ->
    if tx.tx_live () then true
    else begin
      ignore (Deque.pop_front c.txq);
      some_live_tx c
    end

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
let refill eng c ~time =
  match c.cap with
  | Bounded n when Queue.length c.buf < n -> begin
    match pop_live_tx c with
    | None -> ()
    | Some tx ->
      Queue.push
        { sl_val = tx.tx_val; sl_words = tx.tx_words; sl_core = tx.tx_core;
          sl_time = time }
        c.buf;
      ignore eng;
      tx.tx_done ~time
  end
  | Bounded _ | Rendezvous | Unbounded -> ()

(* ------------------------------------------------------------------ *)
(* Plain-operation offers (a private one-shot cell per offer)          *)

let plain_rx eng w ~core ~time =
  ignore eng;
  let claimed = ref false in
  { rx_live = (fun () -> (not !claimed) && Engine.waker_live w);
    rx_claim =
      (fun () ->
        if (not !claimed) && Engine.waker_live w then begin
          claimed := true;
          true
        end
        else false);
    rx_deliver = (fun ~time v -> Engine.wake_at w time v);
    rx_abort = (fun ~time e -> Engine.wake_err_at w time e);
    rx_core = core;
    rx_time = time }

let plain_tx eng w ~v ~words ~core ~time =
  ignore eng;
  let claimed = ref false in
  { tx_live = (fun () -> (not !claimed) && Engine.waker_live w);
    tx_claim =
      (fun () ->
        if (not !claimed) && Engine.waker_live w then begin
          claimed := true;
          true
        end
        else false);
    tx_val = v;
    tx_words = words;
    tx_core = core;
    tx_time = time;
    tx_done = (fun ~time -> Engine.wake_at w time ());
    tx_abort = (fun ~time e -> Engine.wake_err_at w time e) }

(* ------------------------------------------------------------------ *)
(* Send                                                                *)

let deliver_to_rx eng rx ~src_core ~send_time v =
  let lat = transit eng ~src:src_core ~dst:rx.rx_core in
  let completion = max send_time rx.rx_time + lat in
  rx.rx_deliver ~time:completion v

let send_fast eng c v ~words ~src ~ts =
  (* returns true when the send completed without blocking *)
  match pop_live_rx c with
  | Some rx ->
    count_message eng c ~src ~dst:rx.rx_core ~words;
    deliver_to_rx eng rx ~src_core:src ~send_time:ts v;
    true
  | None ->
    let room =
      match c.cap with
      | Unbounded -> true
      | Bounded n -> Queue.length c.buf < n
      | Rendezvous -> false
    in
    if room then begin
      Queue.push { sl_val = v; sl_words = words; sl_core = src; sl_time = ts }
        c.buf;
      count_message eng c ~src ~dst:src ~words;
      true
    end
    else false

let send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  charge_send_side eng ~words;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  if not (send_fast eng c v ~words ~src ~ts) then
    Engine.suspend eng ~tag:("send:" ^ label c) (fun w ->
        Deque.push_back c.txq (plain_tx eng w ~v ~words ~core:src ~time:ts))

let try_send ?(words = 2) c v =
  let eng = Engine.current () in
  if c.closed then raise Closed;
  let src = Engine.fiber_core (Engine.self eng) in
  let ts = Engine.now eng in
  let can =
    some_live_rx c
    ||
    match c.cap with
    | Unbounded -> true
    | Bounded n -> Queue.length c.buf < n
    | Rendezvous -> false
  in
  if can then begin
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
  (not (Queue.is_empty c.buf)) || some_live_tx c || c.closed

let recv_fast eng c ~me ~tr =
  (* call only when [recv_ready]; completes the receive and returns the
     value, raising [Closed] on a drained closed channel *)
  if not (Queue.is_empty c.buf) then begin
    let sl = Queue.pop c.buf in
    let completion = max tr sl.sl_time + transit eng ~src:sl.sl_core ~dst:me in
    Engine.charge eng (completion - tr);
    refill eng c ~time:completion;
    if Engine.tracing eng then Engine.emit eng (Trace.Recv { chan = c.chid });
    sl.sl_val
  end
  else
    match pop_live_tx c with
    | Some tx ->
      let completion = max tr tx.tx_time + transit eng ~src:tx.tx_core ~dst:me in
      Engine.charge eng (completion - tr);
      count_message eng c ~src:tx.tx_core ~dst:me ~words:tx.tx_words;
      tx.tx_done ~time:completion;
      if Engine.tracing eng then
        Engine.emit eng (Trace.Recv { chan = c.chid });
      tx.tx_val
    | None ->
      if c.closed then raise Closed
      else failwith "Chan.recv_fast: not ready"

let recv c =
  let eng = Engine.current () in
  let me = Engine.fiber_core (Engine.self eng) in
  let tr = Engine.now eng in
  if recv_ready c then recv_fast eng c ~me ~tr
  else
    Engine.suspend eng ~tag:("recv:" ^ label c) (fun w ->
        Deque.push_back c.rxq (plain_rx eng w ~core:me ~time:tr))

let try_recv c =
  let eng = Engine.current () in
  let me = Engine.fiber_core (Engine.self eng) in
  let tr = Engine.now eng in
  if not (Queue.is_empty c.buf) || some_live_tx c then
    Some (recv_fast eng c ~me ~tr)
  else if c.closed then raise Closed
  else None

(* ------------------------------------------------------------------ *)
(* Close                                                               *)

let close c =
  if not c.closed then begin
    let eng = Engine.current () in
    let t = Engine.now eng in
    c.closed <- true;
    let rec abort_rxs () =
      match pop_live_rx c with
      | None -> ()
      | Some rx ->
        rx.rx_abort ~time:t Closed;
        abort_rxs ()
    in
    let rec abort_txs () =
      match pop_live_tx c with
      | None -> ()
      | Some tx ->
        tx.tx_abort ~time:t Closed;
        abort_txs ()
    in
    abort_rxs ();
    abort_txs ()
  end

(* ------------------------------------------------------------------ *)
(* Choice                                                              *)

type 'r case =
  | Case : {
      ready : unit -> bool;
      exec : unit -> 'r;
      register : (unit -> 'r) Engine.waker -> bool ref -> unit;
    }
      -> 'r case
  | Timeout : int * (unit -> 'r) -> 'r case
  | Default : (unit -> 'r) -> 'r case

(* Offers registered by a blocked choice share one commit cell; the
   first partner (or timer) to claim it wins and the rest go stale. *)
let choice_rx c f w cell ~core ~time =
  let rx =
    { rx_live = (fun () -> (not !cell) && Engine.waker_live w);
      rx_claim =
        (fun () ->
          if (not !cell) && Engine.waker_live w then begin
            cell := true;
            true
          end
          else false);
      rx_deliver = (fun ~time v -> Engine.wake_at w time (fun () -> f v));
      rx_abort =
        (fun ~time e -> Engine.wake_at w time (fun () -> raise e));
      rx_core = core;
      rx_time = time }
  in
  Deque.push_back c.rxq rx

let choice_tx c v h w cell ~words ~core ~time =
  let tx =
    { tx_live = (fun () -> (not !cell) && Engine.waker_live w);
      tx_claim =
        (fun () ->
          if (not !cell) && Engine.waker_live w then begin
            cell := true;
            true
          end
          else false);
      tx_val = v;
      tx_words = words;
      tx_core = core;
      tx_time = time;
      tx_done = (fun ~time -> Engine.wake_at w time h);
      tx_abort =
        (fun ~time e -> Engine.wake_at w time (fun () -> raise e)) }
  in
  Deque.push_back c.txq tx

let recv_case c f =
  Case
    { ready = (fun () -> recv_ready c);
      exec =
        (fun () ->
          let eng = Engine.current () in
          let me = Engine.fiber_core (Engine.self eng) in
          let tr = Engine.now eng in
          f (recv_fast eng c ~me ~tr));
      register =
        (fun w cell ->
          let eng = Engine.current () in
          let me = Engine.waker_fiber w |> Engine.fiber_core in
          choice_rx c f w cell ~core:me ~time:(Engine.now eng)) }

let send_case ?(words = 2) c v h =
  Case
    { ready =
        (fun () ->
          c.closed || some_live_rx c
          ||
          match c.cap with
          | Unbounded -> true
          | Bounded n -> Queue.length c.buf < n
          | Rendezvous -> false);
      exec =
        (fun () ->
          let eng = Engine.current () in
          if c.closed then raise Closed;
          charge_send_side eng ~words;
          let src = Engine.fiber_core (Engine.self eng) in
          let ts = Engine.now eng in
          let ok = send_fast eng c v ~words ~src ~ts in
          assert ok;
          h ());
      register =
        (fun w cell ->
          let eng = Engine.current () in
          let src = Engine.waker_fiber w |> Engine.fiber_core in
          charge_send_side eng ~words;
          choice_tx c v h w cell ~words ~core:src ~time:(Engine.now eng)) }

let after n h =
  if n < 0 then invalid_arg "Chan.after: negative delay";
  Timeout (n, h)

let default h = Default h

type strategy = Commit | Poll of int

let case_ready = function
  | Case { ready; _ } -> ready ()
  | Timeout _ | Default _ -> false

let choose_commit cases =
  let eng = Engine.current () in
  let costs = Engine.costs eng in
  (* scanning k options touches k channel headers *)
  Engine.charge eng (List.length cases * costs.Cost.cache_hit);
  let ready = List.filter case_ready cases in
  match ready with
  | _ :: _ ->
    let arr = Array.of_list ready in
    let pick = arr.(Rng.int (Engine.rng eng) (Array.length arr)) in
    (match pick with
    | Case { exec; _ } -> exec ()
    | Timeout _ | Default _ -> assert false)
  | [] -> (
    let defaults =
      List.filter_map (function Default h -> Some h | _ -> None) cases
    in
    match defaults with
    | h :: _ -> h ()
    | [] ->
      let thunk =
        Engine.suspend eng ~tag:"choose" (fun w ->
            let cell = ref false in
            List.iter
              (function
                | Case { register; _ } -> register w cell
                | Timeout (n, h) ->
                  let fire = Engine.now eng + n in
                  Engine.schedule_at eng fire (fun () ->
                      if (not !cell) && Engine.waker_live w then begin
                        cell := true;
                        Engine.wake_at w fire h
                      end)
                | Default _ -> ())
              cases)
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
          | Case { ready; _ } -> ready ()
          | Timeout (n, _) -> now - start >= n
          | Default _ -> false)
        cases
    in
    match ready with
    | _ :: _ -> (
      let arr = Array.of_list ready in
      match arr.(Rng.int (Engine.rng eng) (Array.length arr)) with
      | Case { exec; _ } -> exec ()
      | Timeout (_, h) -> h ()
      | Default _ -> assert false)
    | [] -> (
      let defaults =
        List.filter_map (function Default h -> Some h | _ -> None) cases
      in
      match defaults with
      | h :: _ -> h ()
      | [] ->
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
