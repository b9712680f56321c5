type t = {
  mutable keys : float array;
  mutable payloads : int array;
  mutable len : int;
}

let create ~capacity =
  let cap = max 8 capacity in
  { keys = Array.make cap 0.; payloads = Array.make cap 0; len = 0 }

let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.keys in
  if h.len = cap then begin
    let keys = Array.make (2 * cap) 0. and payloads = Array.make (2 * cap) 0 in
    Array.blit h.keys 0 keys 0 cap;
    Array.blit h.payloads 0 payloads 0 cap;
    h.keys <- keys;
    h.payloads <- payloads
  end

(* Both sifts move a hole rather than swapping: the entry being placed is
   written once, where the hole stops.  They make the comparisons a
   swapping heap makes, in the same order, so the array layout — and with
   it the order equal keys come out in — is the swapping heap's. *)
let push h key payload =
  grow h;
  let keys = h.keys and payloads = h.payloads in
  let hole = ref h.len in
  h.len <- h.len + 1;
  while !hole > 0 && keys.((!hole - 1) / 2) > key do
    let parent = (!hole - 1) / 2 in
    keys.(!hole) <- keys.(parent);
    payloads.(!hole) <- payloads.(parent);
    hole := parent
  done;
  keys.(!hole) <- key;
  payloads.(!hole) <- payload

let min_key h =
  if h.len = 0 then invalid_arg "Pqueue.min_key: empty heap";
  h.keys.(0)

let pop h =
  if h.len = 0 then invalid_arg "Pqueue.pop: empty heap";
  let keys = h.keys and payloads = h.payloads in
  let top = payloads.(0) in
  let len = h.len - 1 in
  h.len <- len;
  if len > 0 then begin
    (* sift the last entry down from the root *)
    let key = keys.(len) and payload = payloads.(len) in
    let hole = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !hole) + 1 in
      let r = l + 1 in
      let child = ref !hole in
      if l < len && keys.(l) < key then child := l;
      if r < len then
        if !child = l then (if keys.(r) < keys.(l) then child := r)
        else if keys.(r) < key then child := r;
      if !child = !hole then continue := false
      else begin
        keys.(!hole) <- keys.(!child);
        payloads.(!hole) <- payloads.(!child);
        hole := !child
      end
    done;
    keys.(!hole) <- key;
    payloads.(!hole) <- payload
  end;
  top
