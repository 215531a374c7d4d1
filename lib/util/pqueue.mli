(** Mutable binary min-heap keyed by [int], stable among equal keys.

    The discrete-event engine keeps all pending events here, keyed by
    virtual time.  Each insertion also takes a sequence number from a
    counter the queue owns, and bindings with equal keys pop in
    insertion order, so the ordering of simultaneous events is
    deterministic.  Each value is written once, into a stable slot;
    the heap itself orders [int] arrays of keys, sequence numbers and
    slot indices, compared with monomorphic [<].  Neither {!add} nor
    {!pop} allocates (beyond amortised growth), and each stores one
    pointer: a sift moves only ints, so it never goes through the write
    barrier. *)

type 'a t

val create : dummy:'a -> 'a t
(** [create ~dummy] is an empty queue.  [dummy] fills every slot that
    holds no binding, so the queue never keeps a popped value
    reachable. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> int -> 'a -> unit
(** [add t k v] inserts [v] under key [k] in O(log n), after every
    binding already present with key [k]. *)

val min_key : 'a t -> int
(** The smallest key present.  Raises [Invalid_argument] when empty. *)

val pop : 'a t -> 'a
(** Remove and return the value of the first binding in (key,
    insertion) order, in O(log n).  Raises [Invalid_argument] when
    empty. *)
