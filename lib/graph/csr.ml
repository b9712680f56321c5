type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32_create len : i32 =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

(* The packed CSR region is int32 Bigarrays, whatever the graph's
   origin: a binary load maps its file regions straight in, and every
   other graph packs into the same layout at compaction.  The append
   buffer stays in native int arrays: it is small (at most a quarter of
   the packed region) and mutation-heavy. *)
type t = {
  n : int;
  mutable off : i32;
  mutable nbr : i32;
  mutable eid : i32;
  mutable buf_head : int array;
  mutable buf_nbr : int array;
  mutable buf_eid : int array;
  mutable buf_next : int array;
  mutable buf_len : int;
  mutable deg : int array;
  mutable half : int;
}

let compaction_floor = 64
let max_half = Int32.to_int Int32.max_int

let vertices t = t.n
let half_edges t = t.half
let degree t u = t.deg.(u)
let buffered t = t.buf_len

let resident_bytes t =
  let dim = Bigarray.Array1.dim in
  (4 * (dim t.off + dim t.nbr + dim t.eid))
  + Sys.word_size / 8
    * (Array.length t.buf_head + Array.length t.buf_nbr
     + Array.length t.buf_eid + Array.length t.buf_next
     + Array.length t.deg)

let adopt ~off ~nbr ~eid ~deg ~half =
  let n = Array.length deg in
  {
    n;
    off;
    nbr;
    eid;
    buf_head = Array.make n (-1);
    buf_nbr = [||];
    buf_eid = [||];
    buf_next = [||];
    buf_len = 0;
    deg;
    half;
  }

let create n =
  if n >= max_half then
    invalid_arg "Csr.create: vertex count exceeds the int32 index range";
  let off = i32_create (n + 1) in
  Bigarray.Array1.fill off 0l;
  adopt ~off ~nbr:(i32_create 0) ~eid:(i32_create 0) ~deg:(Array.make n 0)
    ~half:0

let compact t =
  if t.buf_len > 0 then begin
    let off = i32_create (t.n + 1) in
    let nbr = i32_create t.half and eid = i32_create t.half in
    (* Per vertex: buffer chain first (it is newest-first), then the old
       packed slice (already newest-first) — decreasing edge ids
       throughout, so the ordering contract survives compaction.  Rows
       are written in vertex order, so one cursor walks the new region. *)
    let cur = ref 0 in
    for u = 0 to t.n - 1 do
      off.{u} <- Int32.of_int !cur;
      let j = ref t.buf_head.(u) in
      while !j >= 0 do
        nbr.{!cur} <- Int32.of_int t.buf_nbr.(!j);
        eid.{!cur} <- Int32.of_int t.buf_eid.(!j);
        incr cur;
        j := t.buf_next.(!j)
      done;
      t.buf_head.(u) <- -1;
      for i = Int32.to_int t.off.{u} to Int32.to_int t.off.{u + 1} - 1 do
        nbr.{!cur} <- t.nbr.{i};
        eid.{!cur} <- t.eid.{i};
        incr cur
      done
    done;
    off.{t.n} <- Int32.of_int !cur;
    t.off <- off;
    t.nbr <- nbr;
    t.eid <- eid;
    t.buf_len <- 0
  end

let grow_buffer t =
  let cap = Array.length t.buf_nbr in
  if t.buf_len = cap then begin
    let cap' = max 16 (2 * cap) in
    let widen a =
      let b = Array.make cap' 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    t.buf_nbr <- widen t.buf_nbr;
    t.buf_eid <- widen t.buf_eid;
    t.buf_next <- widen t.buf_next
  end

let add t u v id =
  if t.half >= max_half then
    invalid_arg
      (Printf.sprintf "Csr.add: %d half-edges would exceed the int32 index range"
         (t.half + 1));
  grow_buffer t;
  let j = t.buf_len in
  t.buf_nbr.(j) <- v;
  t.buf_eid.(j) <- id;
  t.buf_next.(j) <- t.buf_head.(u);
  t.buf_head.(u) <- j;
  t.buf_len <- j + 1;
  t.deg.(u) <- t.deg.(u) + 1;
  t.half <- t.half + 1;
  (* Compact once the buffer outgrows a quarter of the packed region
     (floor [compaction_floor] half-edges): traversals between
     compactions chase at most that many chain links per pass, and the
     rebuild schedule stays geometric. *)
  if t.buf_len >= max compaction_floor ((t.half - t.buf_len) / 4) then compact t

let iter t u fn =
  let bnbr = t.buf_nbr and beid = t.buf_eid and bnext = t.buf_next in
  let j = ref t.buf_head.(u) in
  while !j >= 0 do
    fn bnbr.(!j) beid.(!j);
    j := bnext.(!j)
  done;
  let nbr = t.nbr and eid = t.eid in
  for i = Int32.to_int t.off.{u} to Int32.to_int t.off.{u + 1} - 1 do
    fn (Int32.to_int nbr.{i}) (Int32.to_int eid.{i})
  done

let find t u v =
  let rec chain j =
    if j < 0 then None
    else if t.buf_nbr.(j) = v then Some t.buf_eid.(j)
    else chain t.buf_next.(j)
  in
  match chain t.buf_head.(u) with
  | Some _ as found -> found
  | None ->
      let stop = Int32.to_int t.off.{u + 1} in
      let rec packed i =
        if i >= stop then None
        else if Int32.to_int t.nbr.{i} = v then
          Some (Int32.to_int t.eid.{i})
        else packed (i + 1)
      in
      packed (Int32.to_int t.off.{u})

let i32_copy a =
  let b = i32_create (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a b;
  b

let copy t =
  {
    n = t.n;
    off = i32_copy t.off;
    nbr = i32_copy t.nbr;
    eid = i32_copy t.eid;
    buf_head = Array.copy t.buf_head;
    buf_nbr = Array.copy t.buf_nbr;
    buf_eid = Array.copy t.buf_eid;
    buf_next = Array.copy t.buf_next;
    buf_len = t.buf_len;
    deg = Array.copy t.deg;
    half = t.half;
  }

(* Offsets must describe a well-formed CSR over [n] vertices and every
   neighbor must be a valid vertex.  Edge-id semantics (two half-edges
   per id, ids dense in [0, m)) belong to Graph.of_adjacency. *)
let of_packed_i32 ~off ~nbr ~eid =
  let what = "Csr.of_packed_i32" in
  let dim = Bigarray.Array1.dim in
  let n = dim off - 1 in
  let get_off u = Int32.to_int off.{u} in
  let half = if n >= 0 then get_off n else 0 in
  if n < 0 then invalid_arg (what ^ ": negative vertex count");
  if dim nbr <> dim eid then invalid_arg (what ^ ": nbr/eid length mismatch");
  if half <> dim nbr then invalid_arg (what ^ ": off does not cover nbr");
  if get_off 0 <> 0 then invalid_arg (what ^ ": off must start at 0");
  for u = 0 to n - 1 do
    if get_off (u + 1) < get_off u then
      invalid_arg (what ^ ": off not monotone")
  done;
  for i = 0 to dim nbr - 1 do
    let v = Int32.to_int nbr.{i} in
    if v < 0 || v >= n then invalid_arg (what ^ ": neighbor out of range")
  done;
  let deg = Array.init n (fun u -> get_off (u + 1) - get_off u) in
  adopt ~off ~nbr ~eid ~deg ~half
