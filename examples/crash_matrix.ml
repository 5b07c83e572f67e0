(** Crash-recovery matrix (DESIGN.md §5d), run by ci.sh: the [Kill]
    column of the chaos coverage matrix. For every site in
    [Fault.known_sites], [Chaos.probe] kills the controller there mid-
    operation, runs recovery as a fresh controller and checks that every
    pid is fully customized or fully original, on its expected side,
    and serving. A site with no probe, or one its probe never reaches,
    fails the matrix.

    Run with: dune exec examples/crash_matrix.exe *)

let () =
  let sites = List.map fst Fault.known_sites in
  let failed =
    List.filter
      (fun site ->
        let p = Chaos.probe site Fault.Kill in
        if p.Chaos.p_ok then Printf.printf "%-22s ok\n%!" site
        else Printf.printf "%-22s FAIL: %s\n%!" site p.Chaos.p_detail;
        not p.Chaos.p_ok)
      sites
  in
  if failed <> [] then begin
    Printf.printf "crash matrix: %d of %d sites FAILED\n" (List.length failed)
      (List.length sites);
    exit 1
  end;
  Printf.printf "crash matrix: all %d sites survived controller death\n"
    (List.length sites)
