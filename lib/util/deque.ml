(* A ring whose slots hold the elements themselves, so a push stores
   one pointer and a take allocates nothing.  The buffer is an [Obj.t
   array] filled with an immediate, so it is a plain block whatever ['a]
   is (never a flat float array), and a vacated slot is reset to that
   immediate so a taken element is not kept reachable.  Capacities are
   powers of two, so wrapping is a mask. *)
type 'a t = {
  mutable buf : Obj.t array;
  mutable head : int;  (* index of front element *)
  mutable size : int;
}

let vacant = Obj.repr 0

(* The buffer is allocated on the first push: most channels' wait
   queues never hold anyone. *)
let create () = { buf = [||]; head = 0; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let mask t = Array.length t.buf - 1

let index t i = (t.head + i) land mask t

let grow t =
  let buf = Array.make (max 2 (2 * Array.length t.buf)) vacant in
  for i = 0 to t.size - 1 do
    buf.(i) <- t.buf.(index t i)
  done;
  t.buf <- buf;
  t.head <- 0

let push_back t (x : 'a) =
  if t.size = Array.length t.buf then grow t;
  t.buf.(index t t.size) <- Obj.repr x;
  t.size <- t.size + 1

let push_front t (x : 'a) =
  if t.size = Array.length t.buf then grow t;
  t.head <- (t.head - 1) land mask t;
  t.buf.(t.head) <- Obj.repr x;
  t.size <- t.size + 1

let front t : 'a =
  if t.size = 0 then invalid_arg "Deque.front: empty";
  Obj.obj t.buf.(t.head)

let take_front t : 'a =
  if t.size = 0 then invalid_arg "Deque.take_front: empty";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- vacant;
  t.head <- (t.head + 1) land mask t;
  t.size <- t.size - 1;
  Obj.obj x

let iter (f : 'a -> unit) t =
  for i = 0 to t.size - 1 do
    f (Obj.obj t.buf.(index t i))
  done

let to_list t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := Obj.obj t.buf.(index t i) :: !acc
  done;
  !acc
