module Fiber = Chorus.Fiber
module Chan = Chorus.Chan
module Rng = Chorus_util.Rng

let exponential_times ~seed ~mean_gap ~count ~start =
  let rng = Rng.make seed in
  let rec go n t =
    if n <= 0 then []
    else
      let t =
        t + 1 + int_of_float (Rng.exponential rng (float_of_int mean_gap))
      in
      t :: go (n - 1) t
  in
  go count start

let start = function
  | [] -> ignore
  | plan ->
    let plan = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) plan in
    let rec spread last = function
      | [] -> []
      | (t, f) :: rest ->
        let t = if t <= last then last + 1 else t in
        (t, f) :: spread t rest
    in
    let plan = spread (-1) plan in
    let done_ch = Chan.buffered 1 in
    ignore
      (Fiber.spawn ~label:"fault-injector" ~daemon:true (fun () ->
           List.iter
             (fun (at, action) ->
               let now = Fiber.now () in
               if at > now then Fiber.sleep (at - now);
               action ())
             plan;
           Chan.send done_ch ()));
    fun () -> Chan.recv done_ch
