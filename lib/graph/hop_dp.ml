let min_hop_path ?blocked_vertices:(bv = [||]) ?blocked_edges:(be = [||]) g ~src
    ~dst ~budget ~max_hops =
  if Bfs.blocked bv src || Bfs.blocked bv dst || budget < 0. then None
  else if src = dst then Some { Path.vertices = [ src ]; edges = [] }
  else begin
    let n = Graph.n g in
    let max_hops = min max_hops (n - 1) in
    (* dist.(v): lightest weight reaching [v] within the current hop count;
       rebuilt layer by layer.  parent.(h) records the tree of layer h so a
       witness can be extracted once [dst] first becomes reachable. *)
    let scan = Csr.scanner (Graph.adjacency g) in
    let dist = Array.make n infinity in
    let next = Array.make n infinity in
    let parent_edge = Array.init (max_hops + 1) (fun _ -> [||]) in
    let parent_vertex = Array.init (max_hops + 1) (fun _ -> [||]) in
    dist.(src) <- 0.;
    let found_at = ref (-1) in
    let h = ref 0 in
    while !found_at < 0 && !h < max_hops do
      incr h;
      let pe = Array.make n (-1) and pv = Array.make n (-1) in
      parent_edge.(!h) <- pe;
      parent_vertex.(!h) <- pv;
      Array.blit dist 0 next 0 n;
      let improved = ref false in
      for x = 0 to n - 1 do
        if dist.(x) < infinity then begin
          let relax y id =
            if (not (Bfs.blocked be id)) && not (Bfs.blocked bv y) then begin
              let nd = dist.(x) +. Graph.weight g id in
              if nd <= budget && nd < next.(y) then begin
                next.(y) <- nd;
                pe.(y) <- id;
                pv.(y) <- x;
                improved := true
              end
            end
          in
          scan x relax
        end
      done;
      Array.blit next 0 dist 0 n;
      if dist.(dst) < infinity then found_at := !h
      else if not !improved then h := max_hops (* fixed point: stop *)
    done;
    if !found_at < 0 then None
    else begin
      (* Walk back through the layers.  A vertex reached at layer h may have
         been reached earlier; follow the latest layer [<= h] that recorded a
         parent, which reconstructs a lightest walk of at most [found_at]
         hops. *)
      let rec climb x h vertices edges =
        if x = src then Some { Path.vertices = src :: vertices; edges }
        else if h <= 0 then None
        else if parent_edge.(h).(x) >= 0 then
          climb
            parent_vertex.(h).(x)
            (h - 1)
            (x :: vertices)
            (parent_edge.(h).(x) :: edges)
        else climb x (h - 1) vertices edges
      in
      climb dst !found_at [] []
    end
  end
