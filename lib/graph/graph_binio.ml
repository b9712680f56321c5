exception Not_a_graph of string
exception Corrupt of string

let magic = "ftspan.g"
let version = 1
let endian_tag = 0x01020304l
let header_bytes = 40

let align8 pos = (pos + 7) land lnot 7

(* Region offsets for a given (n, m); everything before the weights is a
   multiple of 4, so the int32 regions are naturally aligned and only
   the float64 region needs explicit padding. *)
let off_pos = header_bytes
let nbr_pos ~n = off_pos + (4 * (n + 1))
let eid_pos ~n ~m = nbr_pos ~n + (8 * m)
let weights_pos ~n ~m = align8 (eid_pos ~n ~m + (8 * m))

let expected_size ~n ~m ~weighted =
  if weighted then weights_pos ~n ~m + (8 * m) else eid_pos ~n ~m + (8 * m)

(* ------------------------------------------------------------------ *)
(* Writing *)

let save g file =
  let n = Graph.n g and m = Graph.m g in
  if 2 * m > Csr.max_half || n >= Csr.max_half then
    invalid_arg "Graph_binio.save: graph exceeds the int32 index range";
  let weighted = not (Graph.is_unit_weighted g) in
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let b4 = Bytes.create 4 and b8 = Bytes.create 8 in
      let w32 v =
        Bytes.set_int32_le b4 0 (Int32.of_int v);
        output_bytes oc b4
      in
      let w64 v =
        Bytes.set_int64_le b8 0 (Int64.of_int v);
        output_bytes oc b8
      in
      output_string oc magic;
      w32 version;
      Bytes.set_int32_le b4 0 endian_tag;
      output_bytes oc b4;
      w64 n;
      w64 m;
      w32 (if weighted then 1 else 0);
      w32 0;
      (* off: cumulative degrees — matches the row-concatenated order
         the nbr/eid dump below uses. *)
      let adj = Graph.adjacency g in
      let acc = ref 0 in
      w32 0;
      for u = 0 to n - 1 do
        acc := !acc + Csr.degree adj u;
        w32 !acc
      done;
      for u = 0 to n - 1 do
        Csr.iter adj u (fun v _ -> w32 v)
      done;
      for u = 0 to n - 1 do
        Csr.iter adj u (fun _ id -> w32 id)
      done;
      if weighted then begin
        let pad = weights_pos ~n ~m - (eid_pos ~n ~m + (8 * m)) in
        for _ = 1 to pad do
          output_char oc '\000'
        done;
        Graph.iter_edges g (fun e ->
            Bytes.set_int64_le b8 0 (Int64.bits_of_float e.Graph.w);
            output_bytes oc b8)
      end)

(* ------------------------------------------------------------------ *)
(* Reading *)

let corrupt file fmt =
  Printf.ksprintf (fun msg -> raise (Corrupt (file ^ ": " ^ msg))) fmt

let not_a_graph file fmt =
  Printf.ksprintf (fun msg -> raise (Not_a_graph (file ^ ": " ^ msg))) fmt

(* Map [len] int32s at byte offset [pos].  [Unix.map_file] accepts any
   offset (it page-aligns internally), and the mapping is private: the
   first compaction after a mutating [add_edge] replaces the arrays
   wholesale, so the file is never written through.  Big-endian hosts
   cannot reinterpret the little-endian bytes in place and take the
   copy-and-swap fallback instead. *)
let map_i32 fd ~pos ~len : Csr.i32 =
  if len = 0 then Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout 0
  else
    let a =
      Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout
        false [| len |]
    in
    Bigarray.array1_of_genarray a

let read_i32_swapped ic ~pos ~len : Csr.i32 =
  let a = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout len in
  seek_in ic pos;
  let chunk = Bytes.create (4 * 65536) in
  let i = ref 0 in
  while !i < len do
    let batch = min 65536 (len - !i) in
    really_input ic chunk 0 (4 * batch);
    for k = 0 to batch - 1 do
      Bigarray.Array1.set a (!i + k) (Bytes.get_int32_le chunk (4 * k))
    done;
    i := !i + batch
  done;
  a

let load file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let size = in_channel_length ic in
      if size < String.length magic then not_a_graph file "file too short";
      let mg = really_input_string ic (String.length magic) in
      if mg <> magic then not_a_graph file "bad magic (not an ftspan.graph file)";
      if size < header_bytes then corrupt file "truncated header";
      let hdr = Bytes.create (header_bytes - 8) in
      really_input ic hdr 0 (header_bytes - 8);
      let ver = Int32.to_int (Bytes.get_int32_le hdr 0) in
      if ver <> version then corrupt file "unsupported format version %d" ver;
      if Bytes.get_int32_le hdr 4 <> endian_tag then
        corrupt file "bad endianness tag";
      let n64 = Bytes.get_int64_le hdr 8 and m64 = Bytes.get_int64_le hdr 16 in
      let kind = Int32.to_int (Bytes.get_int32_le hdr 24) in
      if kind <> 0 && kind <> 1 then corrupt file "unknown weights kind %d" kind;
      let limit = Int64.of_int Csr.max_half in
      if Int64.compare n64 0L < 0 || Int64.compare n64 limit >= 0 then
        corrupt file "vertex count out of range";
      if
        Int64.compare m64 0L < 0
        || Int64.compare (Int64.mul 2L m64) limit > 0
      then corrupt file "edge count %Ld exceeds the int32 index range" m64;
      let n = Int64.to_int n64 and m = Int64.to_int m64 in
      let weighted = kind = 1 in
      let want = expected_size ~n ~m ~weighted in
      if size < want then corrupt file "truncated (%d bytes, need %d)" size want;
      if size > want then corrupt file "trailing bytes (%d past %d)" size want;
      let fetch =
        if Sys.big_endian then fun ~pos ~len -> read_i32_swapped ic ~pos ~len
        else begin
          let fd = Unix.descr_of_in_channel ic in
          fun ~pos ~len -> map_i32 fd ~pos ~len
        end
      in
      let off = fetch ~pos:off_pos ~len:(n + 1) in
      let nbr = fetch ~pos:(nbr_pos ~n) ~len:(2 * m) in
      let eid = fetch ~pos:(eid_pos ~n ~m) ~len:(2 * m) in
      let weights =
        if not weighted then None
        else begin
          seek_in ic (weights_pos ~n ~m);
          let w = Array.make m 0. in
          let chunk = Bytes.create (8 * 65536) in
          let i = ref 0 in
          while !i < m do
            let batch = min 65536 (m - !i) in
            really_input ic chunk 0 (8 * batch);
            for k = 0 to batch - 1 do
              w.(!i + k) <- Int64.float_of_bits (Bytes.get_int64_le chunk (8 * k))
            done;
            i := !i + batch
          done;
          Some w
        end
      in
      let adj =
        try Csr.of_packed_i32 ~off ~nbr ~eid
        with Invalid_argument msg -> corrupt file "invalid adjacency: %s" msg
      in
      try Graph.of_adjacency ?weights adj
      with Invalid_argument msg -> corrupt file "invalid graph: %s" msg)
