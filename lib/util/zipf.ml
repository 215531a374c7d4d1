type t = {
  n : int;
  cdf : float array;  (* cdf.(i) = P(rank <= i) *)
  pmf : float array;
}

(* Two passes over [pmf] and no other temporary: the raw weights go
   into [pmf] and are summed in rank order, then normalised in place
   while [cdf] accumulates.  Every float operation happens in the same
   order as with a separate weight array, so the tables are the same
   bit for bit. *)
let make ~n ~theta =
  assert (n > 0);
  let pmf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = 1.0 /. (float_of_int (i + 1) ** theta) in
    pmf.(i) <- w;
    total := !total +. w
  done;
  let total = !total in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let p = pmf.(i) /. total in
    pmf.(i) <- p;
    acc := !acc +. p;
    cdf.(i) <- !acc
  done;
  cdf.(n - 1) <- 1.0;
  { n; cdf; pmf }

let n t = t.n

let sample t rng =
  let u = Rng.float rng 1.0 in
  (* binary search for the first index with cdf >= u *)
  let rec go lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then go lo mid else go (mid + 1) hi
    end
  in
  go 0 (t.n - 1)

let probability t rank = t.pmf.(rank)

let cumulative t rank = t.cdf.(rank)
