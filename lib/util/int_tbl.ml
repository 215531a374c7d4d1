(* The keys this table serves are small or counting ints (or packed
   pairs of them) whose low bits already spread over the buckets, so
   the hash is the key itself. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash (x : int) = x
end)
