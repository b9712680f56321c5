(* Distributed constructions: LOCAL vs CONGEST on the same network.

   Run with:  dune exec examples/distributed_demo.exe

   Section 5 of the paper gives two distributed algorithms.  This example
   runs both on the round-accurate simulator over a 16x16 torus (a classic
   distributed-computing topology) and prints what each model pays:
   the LOCAL algorithm finishes in O(log n) rounds but ships whole cluster
   topologies in single messages; the CONGEST algorithm respects an
   O(log n)-bit message budget and pays more rounds instead. *)

let () =
  let rng = Rng.create ~seed:11 in
  let g = Generators.torus ~rows:16 ~cols:16 in
  let k = 2 and f = 1 in
  Printf.printf "network: 16x16 torus, %d nodes, %d links; target: %d-VFT %d-spanner\n"
    (Graph.n g) (Graph.m g) f ((2 * k) - 1);

  (* ------------------------- LOCAL (Theorem 12) --------------------- *)
  let local = Local_spanner.build rng ~mode:Fault.VFT ~k ~f g in
  let d = local.Local_spanner.decomposition in
  Printf.printf "\n[LOCAL]\n";
  Printf.printf "  decomposition: %d partitions, %d rounds, %.1f%% of edges padded\n"
    (Array.length d.Shard_partition.partitions)
    d.Shard_partition.horizon
    (100. *. Shard_partition.coverage d);
  Printf.printf "  gather/scatter: %d + %d rounds over trees of depth <= %d\n"
    local.Local_spanner.gather_rounds local.Local_spanner.scatter_rounds
    d.Shard_partition.max_depth;
  Printf.printf "  total rounds: %d (paper: O(log n); log2 n = %.1f)\n"
    local.Local_spanner.total_rounds
    (log (float_of_int (Graph.n g)) /. log 2.);
  Printf.printf "  spanner size: %d edges\n" local.Local_spanner.selection.Selection.size;
  Printf.printf "  largest message: %d bits - unbounded messages are the point of LOCAL\n"
    local.Local_spanner.stats.Net.max_message_bits;

  (* ------------------------ CONGEST (Theorem 15) -------------------- *)
  let congest = Congest_ft.build rng ~c:0.5 ~mode:Fault.VFT ~k ~f g in
  Printf.printf "\n[CONGEST]\n";
  Printf.printf "  word size: %d bits per message (O(log n))\n" congest.Congest_ft.word_bits;
  Printf.printf "  DK11 iterations: %d Baswana-Sen instances in parallel\n"
    congest.Congest_ft.iterations;
  Printf.printf "  rounds: %d ship-participation + %d scheduled = %d total\n"
    congest.Congest_ft.phase1_rounds congest.Congest_ft.phase2_rounds
    congest.Congest_ft.total_rounds;
  Printf.printf "  busiest link carried %d instances in one step (paper: O(f log n))\n"
    congest.Congest_ft.max_overlap;
  Printf.printf "  spanner size: %d edges (CONGEST pays a ~f log n size factor)\n"
    congest.Congest_ft.selection.Selection.size;

  (* --------------------------- validation --------------------------- *)
  Printf.printf "\n[validation: 200 adversarial single-node failures each]\n";
  List.iter
    (fun (name, sel) ->
      let report =
        Verify.adversarial
          ~cfg:(Verify.config ~rng ~trials:200 ())
          sel ~mode:Fault.VFT
          ~stretch:(float_of_int ((2 * k) - 1))
          ~f
      in
      Printf.printf "  %-10s %s\n" name
        (if Verify.ok report then "ok" else "VIOLATED"))
    [
      ("LOCAL", local.Local_spanner.selection);
      ("CONGEST", congest.Congest_ft.selection);
    ]
