(** Chisel-like static debloater (Heo et al., CCS '18; Figure 10's second
    comparison point).

    Chisel searches for a *minimal* program that still passes a
    user-supplied oracle, guided by reinforcement learning over program
    elements. Its cuts are more aggressive than RAZOR's — no robustness
    expansion — which is why the paper reports Chisel removing more
    blocks on average (66% vs 53.1%).

    Our model: start from exactly the traced blocks (no expansion), then
    run a delta-repair loop against an [oracle] — if the oracle fails on
    the candidate binary, re-add the blocks the failure touched (the
    statistical-model-guided search collapsed to its fixpoint). Like
    Chisel, the result is a single static binary. *)

type result = {
  c_binary : Self.t;
  c_stats : Razor.stats;
  c_iterations : int;  (** oracle-repair rounds until fixpoint *)
}

(** [debloat exe ~coverage ~oracle] where [oracle candidate] returns
    [Ok ()] if the candidate still passes the test suite, or
    [Error blocks] naming blocks that must be restored. *)
let debloat (exe : Self.t) ~(coverage : Covgraph.t)
    ~(oracle : Self.t -> (unit, Covgraph.block list) Stdlib.result) : result =
  let cfg = Cfg.of_self exe in
  let total = List.length (Cfg.real_blocks cfg) in
  let keep = Hashtbl.create 512 in
  List.iter
    (fun (b : Cfg.block) ->
      if Covgraph.mem_off coverage ~module_:exe.Self.name ~off:b.Cfg.bb_off then
        Hashtbl.replace keep b.Cfg.bb_off ())
    (Cfg.real_blocks cfg);
  let build () =
    let removed = ref 0 in
    let sections =
      List.map
        (fun (sec : Self.section) ->
          if not sec.Self.sec_prot.Self.p_x then sec
          else begin
            let data = Bytes.copy sec.Self.sec_data in
            List.iter
              (fun (b : Cfg.block) ->
                let in_sec =
                  b.Cfg.bb_off >= sec.Self.sec_off
                  && b.Cfg.bb_off < sec.Self.sec_off + Bytes.length data
                in
                if in_sec && b.Cfg.bb_size > 0 && not (Hashtbl.mem keep b.Cfg.bb_off)
                then begin
                  Bytes.fill data (b.Cfg.bb_off - sec.Self.sec_off) b.Cfg.bb_size '\xCC';
                  incr removed
                end)
              (Cfg.real_blocks cfg);
            { sec with Self.sec_data = data }
          end)
        exe.Self.sections
    in
    ({ exe with Self.sections }, !removed)
  in
  let rec iterate n =
    let candidate, removed = build () in
    (* at most 8 oracle-repair rounds *)
    if n >= 8 then (candidate, removed, n)
    else
      match oracle candidate with
      | Ok () -> (candidate, removed, n)
      | Error blocks ->
          List.iter
            (fun (b : Covgraph.block) ->
              match Cfg.block_containing cfg b.Covgraph.b_off with
              | Some sb -> Hashtbl.replace keep sb.Cfg.bb_off ()
              | None -> ())
            blocks;
          iterate (n + 1)
  in
  let binary, removed, iterations = iterate 0 in
  {
    c_binary = binary;
    c_stats = { Razor.s_total = total; s_kept = total - removed; s_removed = removed };
    c_iterations = iterations;
  }

(** Convenience oracle that accepts everything — pure trace-minimal cut. *)
let no_oracle : Self.t -> (unit, Covgraph.block list) Stdlib.result = fun _ -> Ok ()
