type backend = Int_array | Int32_bigarray

let backend_name = function
  | Int_array -> "int"
  | Int32_bigarray -> "int32"

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

let i32_create len : i32 =
  Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len

let i32_zeros len =
  let a = i32_create len in
  Bigarray.Array1.fill a 0l;
  a

(* The packed CSR region, in one of the two storage backends.  The
   append buffer stays in native int arrays regardless of backend: it is
   small (at most a quarter of the packed region) and mutation-heavy, so
   boxing its accesses behind the backend seam would tax [add] for no
   resident-memory win. *)
type packed =
  | P_int of { off : int array; nbr : int array; eid : int array }
  | P_i32 of { off : i32; nbr : i32; eid : i32 }

type t = {
  n : int;
  limit : int;  (* max half-edges the backend can index *)
  mutable packed : packed;
  mutable buf_head : int array;
  mutable buf_nbr : int array;
  mutable buf_eid : int array;
  mutable buf_next : int array;
  mutable buf_len : int;
  mutable deg : int array;
  mutable half : int;
}

let backend t =
  match t.packed with P_int _ -> Int_array | P_i32 _ -> Int32_bigarray

let compaction_floor = 64

let max_half = function
  | Int_array -> Sys.max_array_length
  | Int32_bigarray -> Int32.to_int Int32.max_int

let vertices t = t.n
let half_edges t = t.half
let degree t u = t.deg.(u)
let buffered t = t.buf_len

let word_bytes = Sys.word_size / 8

let resident_bytes t =
  let dim = Bigarray.Array1.dim in
  let packed =
    match t.packed with
    | P_int { off; nbr; eid } ->
        word_bytes * (Array.length off + Array.length nbr + Array.length eid)
    | P_i32 { off; nbr; eid } -> 4 * (dim off + dim nbr + dim eid)
  in
  packed
  + word_bytes
    * (Array.length t.buf_head + Array.length t.buf_nbr
     + Array.length t.buf_eid + Array.length t.buf_next
     + Array.length t.deg)

let create ?(backend = Int_array) n =
  if backend = Int32_bigarray && n >= max_half Int32_bigarray then
    invalid_arg "Csr.create: vertex count exceeds the int32 backend's index range";
  let packed =
    match backend with
    | Int_array -> P_int { off = Array.make (n + 1) 0; nbr = [||]; eid = [||] }
    | Int32_bigarray ->
        P_i32 { off = i32_zeros (n + 1); nbr = i32_create 0; eid = i32_create 0 }
  in
  {
    n;
    limit = max_half backend;
    packed;
    buf_head = Array.make n (-1);
    buf_nbr = [||];
    buf_eid = [||];
    buf_next = [||];
    buf_len = 0;
    deg = Array.make n 0;
    half = 0;
  }

let compact t =
  if t.buf_len > 0 then begin
    let off = Array.make (t.n + 1) 0 in
    let acc = ref 0 in
    for u = 0 to t.n - 1 do
      off.(u) <- !acc;
      acc := !acc + t.deg.(u)
    done;
    off.(t.n) <- !acc;
    (* Per vertex: buffer chain first (it is newest-first), then the old
       packed slice (already newest-first) — decreasing edge ids
       throughout, so the ordering contract survives compaction in both
       backends. *)
    (match t.packed with
    | P_int { off = ooff; nbr = onbr; eid = oeid } ->
        let nbr = Array.make t.half 0 and eid = Array.make t.half 0 in
        for u = 0 to t.n - 1 do
          let cur = ref off.(u) in
          let j = ref t.buf_head.(u) in
          while !j >= 0 do
            nbr.(!cur) <- t.buf_nbr.(!j);
            eid.(!cur) <- t.buf_eid.(!j);
            incr cur;
            j := t.buf_next.(!j)
          done;
          t.buf_head.(u) <- -1;
          for i = ooff.(u) to ooff.(u + 1) - 1 do
            nbr.(!cur) <- onbr.(i);
            eid.(!cur) <- oeid.(i);
            incr cur
          done
        done;
        t.packed <- P_int { off; nbr; eid }
    | P_i32 { off = ooff; nbr = onbr; eid = oeid } ->
        let noff = i32_create (t.n + 1) in
        for u = 0 to t.n do
          Bigarray.Array1.set noff u (Int32.of_int off.(u))
        done;
        let nbr = i32_create t.half and eid = i32_create t.half in
        for u = 0 to t.n - 1 do
          let cur = ref off.(u) in
          let j = ref t.buf_head.(u) in
          while !j >= 0 do
            Bigarray.Array1.set nbr !cur (Int32.of_int t.buf_nbr.(!j));
            Bigarray.Array1.set eid !cur (Int32.of_int t.buf_eid.(!j));
            incr cur;
            j := t.buf_next.(!j)
          done;
          t.buf_head.(u) <- -1;
          let lo = Int32.to_int (Bigarray.Array1.get ooff u) in
          let hi = Int32.to_int (Bigarray.Array1.get ooff (u + 1)) in
          for i = lo to hi - 1 do
            Bigarray.Array1.set nbr !cur (Bigarray.Array1.get onbr i);
            Bigarray.Array1.set eid !cur (Bigarray.Array1.get oeid i);
            incr cur
          done
        done;
        t.packed <- P_i32 { off = noff; nbr; eid });
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
  if t.half >= t.limit then
    invalid_arg
      (Printf.sprintf
         "Csr.add: %d half-edges would exceed the %s backend's index range"
         (t.half + 1)
         (backend_name (backend t)));
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

(* One scan closure per traversal: the backend dispatch and the array
   captures happen once, so the per-edge inner loop is monomorphic for
   either backend.  This is the shared idiom of every hot consumer
   (Bfs / Dijkstra / Hop_dp). *)
let scanner t =
  let bhead = t.buf_head and bnbr = t.buf_nbr in
  let beid = t.buf_eid and bnext = t.buf_next in
  match t.packed with
  | P_int { off; nbr; eid } ->
      fun u fn ->
        let j = ref bhead.(u) in
        while !j >= 0 do
          fn bnbr.(!j) beid.(!j);
          j := bnext.(!j)
        done;
        for i = off.(u) to off.(u + 1) - 1 do
          fn nbr.(i) eid.(i)
        done
  | P_i32 { off; nbr; eid } ->
      fun u fn ->
        let j = ref bhead.(u) in
        while !j >= 0 do
          fn bnbr.(!j) beid.(!j);
          j := bnext.(!j)
        done;
        let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) in
        let i = ref (Int32.to_int (Bigarray.Array1.get off u)) in
        while !i < stop do
          fn
            (Int32.to_int (Bigarray.Array1.get nbr !i))
            (Int32.to_int (Bigarray.Array1.get eid !i));
          incr i
        done

let iter t u fn =
  let j = ref t.buf_head.(u) in
  while !j >= 0 do
    fn t.buf_nbr.(!j) t.buf_eid.(!j);
    j := t.buf_next.(!j)
  done;
  match t.packed with
  | P_int { off; nbr; eid } ->
      for i = off.(u) to off.(u + 1) - 1 do
        fn nbr.(i) eid.(i)
      done
  | P_i32 { off; nbr; eid } ->
      let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) in
      let i = ref (Int32.to_int (Bigarray.Array1.get off u)) in
      while !i < stop do
        fn
          (Int32.to_int (Bigarray.Array1.get nbr !i))
          (Int32.to_int (Bigarray.Array1.get eid !i));
        incr i
      done

let find t u v =
  let rec chain j =
    if j < 0 then None
    else if t.buf_nbr.(j) = v then Some t.buf_eid.(j)
    else chain t.buf_next.(j)
  in
  match chain t.buf_head.(u) with
  | Some _ as found -> found
  | None -> (
      match t.packed with
      | P_int { off; nbr; eid } ->
          let rec packed i =
            if i >= off.(u + 1) then None
            else if nbr.(i) = v then Some eid.(i)
            else packed (i + 1)
          in
          packed off.(u)
      | P_i32 { off; nbr; eid } ->
          let stop = Int32.to_int (Bigarray.Array1.get off (u + 1)) in
          let rec packed i =
            if i >= stop then None
            else if Int32.to_int (Bigarray.Array1.get nbr i) = v then
              Some (Int32.to_int (Bigarray.Array1.get eid i))
            else packed (i + 1)
          in
          packed (Int32.to_int (Bigarray.Array1.get off u)))

let i32_copy a =
  let b = i32_create (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit a b;
  b

let copy t =
  let packed =
    match t.packed with
    | P_int { off; nbr; eid } ->
        P_int { off = Array.copy off; nbr = Array.copy nbr; eid = Array.copy eid }
    | P_i32 { off; nbr; eid } ->
        P_i32 { off = i32_copy off; nbr = i32_copy nbr; eid = i32_copy eid }
  in
  {
    n = t.n;
    limit = t.limit;
    packed;
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
  let get_off u = Int32.to_int (Bigarray.Array1.get off u) in
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
    let v = Int32.to_int (Bigarray.Array1.get nbr i) in
    if v < 0 || v >= n then invalid_arg (what ^ ": neighbor out of range")
  done;
  let deg = Array.init n (fun u -> get_off (u + 1) - get_off u) in
  {
    n;
    limit = max_half Int32_bigarray;
    packed = P_i32 { off; nbr; eid };
    buf_head = Array.make n (-1);
    buf_nbr = [||];
    buf_eid = [||];
    buf_next = [||];
    buf_len = 0;
    deg;
    half;
  }
