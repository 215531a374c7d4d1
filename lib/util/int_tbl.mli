(** Hash table keyed by [int], hashing a key to itself.

    For the simulator's hot int-keyed maps, whose keys are fids, ports,
    channel ids, sequence numbers and log indices: a probe is a mask and
    a monomorphic compare, with no [caml_hash] call.  Iteration order is
    not insertion order; a caller that needs an order sorts first. *)

include Hashtbl.S with type key = int
