(** Per-node protocol stack: port demultiplexing plus a reliable
    request/response protocol over the lossy {!Fabric}.

    Structure follows the paper's model: the demux is an autonomous
    fiber that owns the NIC's receive channel and routes frames to
    per-port channels; the reliable layer is ordinary client code built
    from [choose] — a retransmission is literally a timeout arm firing.
    Duplicate suppression on the server side uses a last-seq cache per
    peer, so retried requests execute exactly once. *)

type t

val create : Fabric.t -> Fabric.nic -> t
(** Spawn the demux fiber for this NIC. *)

val addr : t -> int

val listen : t -> port:int -> Fabric.frame Chorus.Chan.t
(** The channel of frames arriving on [port].  One listener per port;
    raises [Invalid_argument] on a duplicate. *)

val send : t -> dst:int -> port:int -> ?seq:int -> string -> unit
(** Fire-and-forget datagram. *)

(** {1 Reliable request/response} *)

type rel_stats = {
  mutable calls : int;
  mutable retransmissions : int;
  mutable failures : int;  (** gave up after max attempts *)
  mutable duplicates_served : int;  (** server-side replays suppressed *)
  mutable dedup_evictions : int;
      (** (peer, seq) entries dropped from the bounded
          duplicate-suppression caches (FIFO insertion order) *)
}

val rel_stats : t -> rel_stats

val call :
  t -> dst:int -> port:int -> ?timeout:int -> ?attempts:int -> string ->
  string option
(** [call t ~dst ~port req] sends the request and waits for the
    matching reply, retransmitting up to [attempts] times (default 5).
    The first attempt waits [timeout] cycles (default 4x the wire round
    trip heuristic: 50k); each retry backs off exponentially (2x per
    retry, bounded at 8x the base) with a seed-derived +-12.5% jitter
    so concurrent callers de-synchronize.  Every retransmission is also
    counted in the run's {!Chorus.Runstats.t.retries}.  [None] when
    every attempt timed out. *)

val serve :
  ?config:Chorus_svc.Svc.config -> ?dedup_capacity:int -> t -> port:int ->
  (src:int -> string -> string) -> unit
(** Serve requests on [port] forever (run in a daemon fiber):
    deduplicates retransmitted requests by (peer, seq), replaying the
    cached reply instead of re-executing the handler.  The dedup cache
    holds at most [dedup_capacity] entries (default 4096), evicting in
    FIFO insertion order and counting evictions in
    {!rel_stats.dedup_evictions}.

    The port's frame queue runs through a {!Chorus_svc.Svc} endpoint:
    [config] sets its overload policy, applied by the demux fiber on
    enqueue.  A frame dropped by [`Reject] or [`Shed_oldest] looks
    exactly like wire loss to the remote caller, whose retransmission
    recovers it.  [`Block] with a capacity cannot bound the port
    channel (it is attached, not created, by the endpoint) — it
    behaves like the unbounded default. *)

val serve_async :
  ?config:Chorus_svc.Svc.config -> ?dedup_capacity:int -> t -> port:int ->
  (src:int -> string -> reply:(string -> unit) -> unit) -> unit
(** Like {!serve} but the handler answers through the [reply] callback
    instead of a return value, so it may hand slow requests to worker
    fibers and keep the port loop responsive.  The handler itself runs
    in the serving fiber and must not block.  Duplicate suppression
    covers in-flight requests (retransmissions of an unanswered request
    are swallowed; the eventual reply answers them) and survives server
    restarts: the (peer, seq) cache and the port channel live on the
    stack, so calling [serve_async] again on the same port after the
    serving fiber died resumes the same endpoint with exactly-once
    semantics intact.  [config] and
    [dedup_capacity] as in {!serve}; the cache capacity is fixed by
    the first server incarnation on the port. *)
