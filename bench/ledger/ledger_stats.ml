(* Order statistics over one run's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Quantiles by the "exclusive" rule of Python's [statistics.quantiles]
   (the rule the benchmark's spread checks use): the [q]-quantile sits at
   1-based position [q (n+1)], interpolated and clamped to the ends. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = (q *. float_of_int (n + 1)) -. 1. in
    if pos <= 0. then a.(0)
    else if pos >= float_of_int (n - 1) then a.(n - 1)
    else
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* Nearest-rank percentile, for latency tails. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

type summary = { value : float; q1 : float; q3 : float; samples : int }

(* [summarize f xs] reports [f] of the median of [xs], with the quartiles
   mapped the same way; [f] may be decreasing (a rate from a time), so the
   quartiles are re-ordered after mapping. *)
let summarize ?(f = Fun.id) xs =
  let a = sorted xs in
  let lo = f (quantile a 0.25) and hi = f (quantile a 0.75) in
  {
    value = f (quantile a 0.5);
    q1 = Float.min lo hi;
    q3 = Float.max lo hi;
    samples = Array.length a;
  }

let single v = { value = v; q1 = v; q3 = v; samples = 1 }

(* Quartile spread as a share of the median ([0] for a single value). *)
let spread s =
  if s.value = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.value
