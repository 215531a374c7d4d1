(** Fault injection.

    A fault plan is a list of [(time, action)] pairs fixed before the
    run starts: every time is an absolute virtual time, so when a fault
    fires never depends on what earlier faults cost.  Replaying the
    same plan replays the same faults.  This is the one injector behind
    the chaos engine, the service-crash load of E10 and the rolling
    node crashes of E20. *)

val start : (int * (unit -> unit)) list -> unit -> unit
(** [start plan] runs [plan] from a daemon fiber and returns a thunk
    that blocks until every action has run.  Actions fire in time
    order, equal times in plan order (each nudged one cycle after the
    one before); a time already past fires at once.  An empty plan
    spawns no fiber and its thunk returns at once. *)

val exponential_times :
  seed:int -> mean_gap:int -> count:int -> start:int -> int list
(** [count] absolute times after [start], separated by exponentially
    distributed gaps of mean [mean_gap] cycles (each at least 1).
    Deterministic in [seed]. *)
