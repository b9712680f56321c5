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

let swap h i j =
  let k = h.keys.(i) and p = h.payloads.(i) in
  h.keys.(i) <- h.keys.(j);
  h.payloads.(i) <- h.payloads.(j);
  h.keys.(j) <- k;
  h.payloads.(j) <- p

let push h key payload =
  grow h;
  let i = ref h.len in
  h.keys.(!i) <- key;
  h.payloads.(!i) <- payload;
  h.len <- h.len + 1;
  while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
    swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop_min h =
  if h.len = 0 then None
  else begin
    let key = h.keys.(0) and payload = h.payloads.(0) in
    h.len <- h.len - 1;
    if h.len > 0 then begin
      h.keys.(0) <- h.keys.(h.len);
      h.payloads.(0) <- h.payloads.(h.len);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if r < h.len && h.keys.(r) < h.keys.(!smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap h !i !smallest;
          i := !smallest
        end
      done
    end;
    Some (key, payload)
  end
