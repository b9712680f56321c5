type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let split rng = Random.State.split rng

let int rng bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.int rng bound

let float rng bound = Random.State.float rng bound

let bool rng = Random.State.bool rng

let bernoulli rng ~p =
  if p <= 0. then false
  else if p >= 1. then true
  else Random.State.float rng 1.0 < p

let exponential rng ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  (* Inverse-CDF sampling; [1. -. u] avoids log 0. *)
  let u = Random.State.float rng 1.0 in
  -.log (1. -. u) /. rate

let uniform_weight rng ~lo ~hi =
  if hi < lo then invalid_arg "Rng.uniform_weight: hi < lo";
  lo +. Random.State.float rng (hi -. lo)

let shuffle rng a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation rng n =
  let a = Array.init n (fun i -> i) in
  shuffle rng a;
  a

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Classic sequential sampling (Knuth 3.4.2 S): O(n) time, sorted output. *)
  let rec loop i chosen acc =
    if chosen = k then List.rev acc
    else
      let remaining = n - i in
      let needed = k - chosen in
      if Random.State.int rng remaining < needed then
        loop (i + 1) (chosen + 1) (i :: acc)
      else loop (i + 1) chosen acc
  in
  loop 0 0 []
