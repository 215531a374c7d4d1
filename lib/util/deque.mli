(** Mutable double-ended queue (growable circular buffer).

    Used for per-core run queues, channel buffers and wait queues: FIFO
    at the back, with high-priority fibers jumping in at the front.
    Neither a push (beyond amortised growth) nor a take allocates, and
    the buffer starts at two slots on the first push. *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push_back : 'a t -> 'a -> unit

val push_front : 'a t -> 'a -> unit

val front : 'a t -> 'a
(** The front element, left in place.  Raises [Invalid_argument] when
    empty. *)

val take_front : 'a t -> 'a
(** Remove and return the front element.  Raises [Invalid_argument]
    when empty. *)

val iter : ('a -> unit) -> 'a t -> unit
(** [iter f t] visits elements front to back. *)

val to_list : 'a t -> 'a list
(** [to_list t] lists elements front to back. *)
