(** The unified service plane: typed service endpoints with bounded
    inboxes and explicit overload policies.

    Paper Section 4 describes the OS as "a collection of services"
    communicating only by messages, and Section 5 sets the goal under
    stress: "aiming for not failing".  Before this module every Chorus
    service was a hand-rolled [Chan.recv] loop over an {e unbounded}
    inbox — overload meant queueing forever and melting latency.  A
    {!t} (request/reply) or {!cast} (one-way) endpoint wraps the inbox
    channel together with a {!config} saying how many requests may
    queue and what happens to the excess:

    - [`Block] — callers block once the inbox is full (backpressure;
      the CSP answer).  With [capacity = 0] the inbox is unbounded and
      a default-configured endpoint is charge-for-charge the bare
      request/reply message pair below.
    - [`Reject] — the caller immediately gets a typed busy error and
      the handler never sees the request (admission control).
    - [`Shed_oldest] — the stalest queued request is dropped (its
      caller gets the busy error) and the new one is admitted; fresh
      work wins (the Erlang mailbox-pruning answer).

    Every endpoint registers one uniform metric set —
    [queue_depth] (gauge, sampled on both enqueue and dequeue),
    [queue_hwm] (high-watermark gauge), [service_time] (histogram),
    [rejected] and [shed] (counters) — under its subsystem, and
    {!serve} wraps each request in a {!Chorus_obs.Span}.  All of it is
    free when no metrics registry / trace sink is installed, and none
    of it ever advances virtual time.

    Experiment E21 sweeps offered load past capacity and measures the
    goodput/latency crossover of the three policies. *)

module Chan = Chorus.Chan
module Fiber = Chorus.Fiber

(** {1 Overload policy} *)

type policy = [ `Block | `Reject | `Shed_oldest ]

type config = { capacity : int; policy : policy }
(** [capacity = 0] means unbounded (the policy is then irrelevant and
    must be [`Block]).  [`Reject] and [`Shed_oldest] require
    [capacity >= 1]. *)

val default_config : config
(** [{ capacity = 0; policy = `Block }]: the unbounded legacy
    behaviour; byte-identical to the pre-Svc service loops. *)

val config : ?capacity:int -> ?policy:policy -> unit -> config

exception Busy
(** Raised by {!call} and {!await} when the request was rejected or
    shed. *)

exception Expired
(** Raised by {!call} and {!await} when the request's end-to-end
    deadline passed before a reply arrived. *)

(** {1 End-to-end deadlines}

    A deadline is an {e absolute virtual time} by which the caller
    needs the reply.  It travels with the request: the serve loop
    drops work that is already expired at the {e dequeue boundary}
    (counted in [expired], answered [`Expired] so a still-listening
    caller unblocks), and while the handler runs, the request's
    deadline is the {e ambient} deadline — nested [call]s inherit it,
    so a budget set at the edge bounds the whole downstream tree.
    Everything is opt-in per call: a call without an explicit or
    ambient deadline takes exactly the pre-deadline path (no
    [Chan.choose], no RNG draw, no table writes), so seeded runs that
    never set a deadline stay byte-identical. *)

val with_deadline : int -> (unit -> 'a) -> 'a
(** [with_deadline d f] runs [f] with ambient deadline [d] for the
    {e current fiber} (saved and restored on exit, even by
    exception).  {!serve} wraps handlers of deadline-carrying requests
    in it automatically; call it directly to set a budget at the edge
    of a request tree. *)

val current_deadline : unit -> int option
(** The current fiber's ambient deadline, if any. *)

(** {1 Endpoints} *)

type 'msg cast
(** A one-way service endpoint ([Notify]-style inboxes, raft kicks,
    the net stack's port queues). *)

type 'resp reply = [ `Ok of 'resp | `Busy | `Expired ] Chan.t
(** The reply half of a request: a one-shot buffered channel.  [`Busy]
    is delivered by the overload policy, [`Expired] by the deadline
    machinery — never by a handler. *)

type ('req, 'resp) t = ('req * 'resp reply) cast
(** A request/reply service endpoint: exactly the paper's
    "[c <- (a, b, c1); r <- c1]" pattern with the inbox governed by a
    {!config}. *)

val cast_create :
  ?config:config -> ?metric_name:string -> ?on_shed:('msg -> unit) ->
  subsystem:string -> label:string -> unit -> 'msg cast
(** Fresh one-way endpoint.  [metric_name] prefixes the uniform metric
    set (["dispatcher.queue_depth"] vs plain ["queue_depth"]) so
    several services can share a subsystem.  [on_shed] observes each
    message dropped by [`Shed_oldest]. *)

val cast_attach :
  ?config:config -> ?metric_name:string -> ?on_shed:('msg -> unit) ->
  subsystem:string -> label:string -> 'msg Chan.t -> 'msg cast
(** Wrap an existing channel (the net stack's per-port frame queues)
    in a service endpoint.  The channel keeps its own buffering
    discipline, so [`Block] with a capacity cannot bound an attached
    unbounded channel — only the admission policies ([`Reject],
    [`Shed_oldest]) apply. *)

val create :
  ?config:config -> ?metric_name:string -> subsystem:string ->
  label:string -> unit -> ('req, 'resp) t
(** Fresh request/reply endpoint.  Shed requests are answered [`Busy]
    on their reply channel automatically. *)

(** {1 Client side}

    Paper Section 3: "A function call [r = f(a, b)] is equivalent,
    given a listener thread on channel c ... to writing
    [c <- (a, b, c1); r <- c1;] where c1 is a fresh channel used to
    send the return value back."  {!call} is exactly that pattern:
    the reply channel travels inside the request, so a server can
    delegate the request to another fiber and the reply still flows
    directly to the caller (the paper's "plumbing"). *)

val offer : ?words:int -> 'msg cast -> 'msg -> [ `Ok | `Busy ]
(** Submit a message under the endpoint's policy.  Under the default
    config this is exactly [Chan.send] (same charges, same words,
    default 2), plus host-side queue-depth sampling. *)

val cast : ?words:int -> 'msg cast -> 'msg -> unit
(** [offer] with the verdict dropped (rejections still count in the
    [rejected] metric). *)

val call : ?words:int -> ?deadline:int -> ('req, 'resp) t -> 'req -> 'resp
(** Send the request with a fresh reply channel, await the reply.
    Under the default config (and no deadline) it is the bare message
    pair: one send on the inbox, one receive on a [Chan.buffered 1]
    reply channel.  Raises {!Busy} when rejected or
    shed.  [deadline] is an absolute virtual time: if it passes before
    the reply arrives (or already passed — the effective deadline is
    the tighter of [deadline] and the ambient one), raises {!Expired}
    and the endpoint drops the request at its dequeue boundary. *)

val call_result :
  ?words:int -> ?deadline:int -> ('req, 'resp) t -> 'req ->
  [ `Ok of 'resp | `Busy | `Expired ]
(** {!call} with the busy/expired outcomes as values instead of
    exceptions. *)

val call_async :
  ?words:int -> ?deadline:int -> ('req, 'resp) t -> 'req -> 'resp reply
(** Fire the request and return the reply channel without waiting.  A
    rejected request's reply channel already holds [`Busy] (an
    already-expired one [`Expired]).  With a [deadline], the endpoint
    will drop the request if it dequeues after the deadline; the
    caller is responsible for its own timed wait (e.g. a
    {!Chan.choose} with {!Chan.after}). *)

val reply_chan : unit -> 'resp reply
(** A fresh one-shot reply channel ([Chan.buffered 1]), for services
    that plumb reply channels inside richer message types. *)

val answer : ?words:int -> 'resp reply -> 'resp -> unit
(** Server half: deliver [`Ok resp] on a hand-plumbed reply channel. *)

val await : 'resp reply -> 'resp
(** Client half of a hand-plumbed call.  Raises {!Busy} / {!Expired}. *)

val await_result : 'resp reply -> [ `Ok of 'resp | `Busy | `Expired ]

(** {1 Server side} *)

val take : 'msg cast -> 'msg
(** Receive the next message (blocking) and sample the queue-depth /
    high-watermark metrics on the dequeue side. *)

val recv_case : 'msg cast -> ('msg -> 'r) -> 'r Chan.case
(** The endpoint as one arm of a {!Chan.choose} (no depth sampling —
    choice commits bypass {!take}). *)

val take_batch : ?max:int -> 'msg cast -> 'msg list
(** Group commit for inboxes: block for the first message, then drain
    up to [max - 1] (default 15) more that are already queued, without
    blocking.  The whole batch costs one dequeue-side depth sample;
    the batch size feeds the [batches]/[batched]/[batch_hwm] counters
    so amortization is measurable.  Raises [Invalid_argument] when
    [max < 1]. *)

val serve_cast_batch : ?max:int -> 'msg cast -> ('msg list -> unit) -> unit
(** Batched flavour of {!serve_cast}: each iteration takes a
    {!take_batch} batch, hits the crash point {e once} per batch, runs
    the handler under a single span / [service_time] sample, and
    counts every message in [served] — the batched-serve charge model
    (one boundary per batch, per-message work inside the handler). *)

val serve :
  ?words_of_resp:('resp -> int) -> ?until:('req -> 'resp -> bool) ->
  ('req, 'resp) t -> ('req -> 'resp) -> unit
(** Serve forever (run inside a daemon fiber): receive, time the
    handler under a span + the [service_time] histogram, reply with
    [words_of_resp resp] payload words (default 2).  When [until req
    resp] answers [true] the endpoint is closed after the reply and
    the loop returns — the vnode retirement protocol.  A request whose
    deadline already passed at dequeue is dropped unserved (counted in
    [expired], answered [`Expired]); a live deadline becomes the
    ambient deadline for the handler's own nested calls. *)

val serve_cast : 'msg cast -> ('msg -> unit) -> unit
(** One-way flavour of {!serve}. *)

val start :
  ?on:int -> ?priority:Fiber.priority -> ?words_of_resp:('resp -> int) ->
  ?until:('req -> 'resp -> bool) -> ('req, 'resp) t -> ('req -> 'resp) ->
  Fiber.t
(** Spawn a daemon fiber (labelled with the endpoint's label) running
    {!serve}. *)

val start_cast :
  ?on:int -> ?priority:Fiber.priority -> 'msg cast -> ('msg -> unit) ->
  Fiber.t

val starter :
  ?on:int -> ?priority:Fiber.priority -> ?words_of_resp:('resp -> int) ->
  ?until:('req -> 'resp -> bool) -> ('req, 'resp) t -> ('req -> 'resp) ->
  unit -> Fiber.t
(** Restart hook for {!Chorus_kernel.Supervisor}-style child specs:
    because a service's identity is its endpoint, re-running the
    thunk re-attaches a fresh fiber to the same inbox. *)

val periodic :
  ?on:int -> ?priority:Fiber.priority -> ?count:int -> label:string ->
  period:int -> (int -> unit) -> Fiber.t
(** The timer-driven service shape (sensors): a daemon fiber that
    sleeps [period] cycles then runs the body with the tick index,
    [count] times ([0] = forever).  Stop it with {!Fiber.kill}. *)

val retire : 'msg cast -> unit
(** Close the inbox: blocked callers are aborted with
    [Chan.Closed]. *)

(** {1 Chaos crash points} *)

val set_crashpoint : (string -> unit) option -> unit
(** Install (or with [None] remove) the ambient crash-point hook.
    {!serve} and {!serve_cast} call it with the endpoint's crash-point
    name at every {e dequeue boundary} — after a request is taken off
    the inbox, before the handler runs, which is exactly where a crash
    loses the dequeued request.  The hook may raise: the serving fiber
    crashes, and a {!starter}-based supervisor restart re-attaches the
    surviving endpoint.  The chaos engine (lib/chaos) uses this to
    kill named service fibers at chosen cycle windows; with no hook
    installed (the default) the check is a single ref read and the
    plane behaves exactly as before. *)

val crashpoint_name : 'msg cast -> string
(** The endpoint's crash-point name: ["subsystem.label"]. *)

(** {1 Introspection} *)

val label : 'msg cast -> string

val capacity : 'msg cast -> int

val policy_of : 'msg cast -> policy

val depth : 'msg cast -> int
(** Requests queued right now. *)

val hwm : 'msg cast -> int
(** Highest queue depth ever sampled (enqueue or dequeue side). *)

val served : 'msg cast -> int

val rejected : 'msg cast -> int

val shed : 'msg cast -> int

val expired : 'msg cast -> int
(** Requests dropped at the dequeue boundary because their deadline
    had already passed. *)

val batches : 'msg cast -> int
(** {!take_batch} calls completed. *)

val batched : 'msg cast -> int
(** Messages delivered through batches; [batched / batches] is the
    realized amortization factor. *)

val batch_hwm : 'msg cast -> int
(** Largest single batch drained. *)
