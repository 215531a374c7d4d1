(* Each value is stored once, in a stable slot of [vals]; the heap
   proper is three [int] arrays indexed by heap position (the key, the
   insertion sequence number and the value's slot), so a sift moves
   only ints and never goes through the write barrier.  [slots] doubles
   as the free list: the positions at or past [size] hold the free
   slots.  Sifts move a hole rather than swapping, so each level costs
   one write per array. *)
type 'a t = {
  dummy : 'a;  (** fills free value slots so popped values are freed *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  { dummy; times = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0;
    next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* Only a full heap grows, so every old slot is in use and the new
   slots are all free: slot [i] starts at position [i]. *)
let grow t =
  let old = Array.length t.times in
  let n = max 64 (2 * old) in
  let extend a =
    let b = Array.make n 0 in
    Array.blit a 0 b 0 old;
    b
  in
  let slots = Array.init n (fun i -> if i < old then t.slots.(i) else i) in
  let vals = Array.make n t.dummy in
  Array.blit t.vals 0 vals 0 old;
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  t.slots <- slots;
  t.vals <- vals

let place t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let move t ~src ~dst = place t dst t.times.(src) t.seqs.(src) t.slots.(src)

(* A fresh binding carries the largest sequence number in the heap, so
   it rises only past parents with a strictly later time: ties stay
   below their elders. *)
let rec sift_up t i time seq slot =
  if i = 0 then place t 0 time seq slot
  else begin
    let p = (i - 1) / 2 in
    if time < t.times.(p) then begin
      move t ~src:p ~dst:i;
      sift_up t p time seq slot
    end
    else place t i time seq slot
  end

(* Whether the binding at [i] orders before [(time, seq)]. *)
let less t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let rec sift_down t i time seq slot =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i time seq slot
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && less t r t.times.(l) t.seqs.(l) then r else l
    in
    if less t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq slot
    end
    else place t i time seq slot
  end

let add t time v =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.size in
  let slot = t.slots.(i) in
  t.vals.(slot) <- v;
  t.size <- i + 1;
  sift_up t i time seq slot

let min_key t =
  if t.size = 0 then invalid_arg "Pqueue.min_key: empty";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let slot = t.slots.(0) in
  let v = t.vals.(slot) in
  t.vals.(slot) <- t.dummy;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 t.times.(last) t.seqs.(last) t.slots.(last);
  (* the sift wrote only positions below [last]: it becomes free *)
  t.slots.(last) <- slot;
  v
