(* Three parallel arrays instead of one array of (key, value) pairs: a
   sift compares plain ints read straight out of [times]/[seqs] with
   monomorphic [<], and an insert allocates nothing (the arrays grow by
   doubling, amortised).  Sifts move a hole rather than swapping, so
   each level costs one write per array. *)
type 'a t = {
  dummy : 'a;  (** fills vacated value slots so popped values are freed *)
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ~dummy =
  { dummy; times = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let grow t =
  let n = max 64 (2 * Array.length t.times) in
  let times = Array.make n 0
  and seqs = Array.make n 0
  and vals = Array.make n t.dummy in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.vals <- vals

let place t i time seq v =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.vals.(i) <- v

let move t ~src ~dst = place t dst t.times.(src) t.seqs.(src) t.vals.(src)

(* A fresh binding carries the largest sequence number in the heap, so
   it rises only past parents with a strictly later time: ties stay
   below their elders. *)
let rec sift_up t i time seq v =
  if i = 0 then place t 0 time seq v
  else begin
    let p = (i - 1) / 2 in
    if time < t.times.(p) then begin
      move t ~src:p ~dst:i;
      sift_up t p time seq v
    end
    else place t i time seq v
  end

(* Whether the binding at [i] orders before [(time, seq)]. *)
let less t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let rec sift_down t i time seq v =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i time seq v
  else begin
    let r = l + 1 in
    let c =
      if r < t.size && less t r t.times.(l) t.seqs.(l) then r else l
    in
    if less t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq v
    end
    else place t i time seq v
  end

let add t time v =
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i time seq v

let min_key t =
  if t.size = 0 then invalid_arg "Pqueue.min_key: empty";
  t.times.(0)

let pop t =
  if t.size = 0 then invalid_arg "Pqueue.pop: empty";
  let v = t.vals.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then
    sift_down t 0 t.times.(last) t.seqs.(last) t.vals.(last);
  t.vals.(last) <- t.dummy;
  v
