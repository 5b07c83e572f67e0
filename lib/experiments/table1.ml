(** Table 1: Redis CVEs mitigated by DynaCut's feature blocking.

    For each CVE we (1) demonstrate the exploit against the vanilla rkv
    server — a crash or a corrupted heap canary — and (2) block the
    vulnerable command with DynaCut (redirecting to the server's own
    error path) and re-run the exploit: the attacker gets "-ERR unknown
    command", the canary stays intact, and the server stays up. *)

type outcome = Crashed | Corrupted | Refused | Survived_clean

let outcome_to_string = function
  | Crashed -> "server crashed (SIGSEGV)"
  | Corrupted -> "memory corrupted"
  | Refused -> "-ERR (feature blocked)"
  | Survived_clean -> "no effect"

type cve = {
  cve_id : string;
  cve_desc : string;
  cve_exploit : string;  (** the malicious request *)
  cve_profile : string list;  (** benign uses of the command, for tracing *)
}

let cves =
  [
    {
      cve_id = "CVE-2021-32625";
      cve_desc = "STRALGO LCS, integer overflow (crash)";
      cve_exploit = Printf.sprintf "STRALGO %s %s\n" (String.make 60 'b') (String.make 60 'b');
      cve_profile = [ "STRALGO abc abd\n" ];
    };
    {
      cve_id = "CVE-2021-29477";
      cve_desc = "STRALGO LCS, integer overflow (OOB write)";
      cve_exploit = Printf.sprintf "STRALGO %s aaaa\n" (String.make 16 'a');
      cve_profile = [ "STRALGO abc abd\n" ];
    };
    {
      cve_id = "CVE-2019-10193";
      cve_desc = "SETRANGE, stack-buffer overflow";
      (* a negative offset walks backwards over the slot's own key *)
      cve_exploit = "SETRANGE greeting -32 XXXX\n";
      cve_profile = [ "SETRANGE greeting 1 x\n" ];
    };
    {
      cve_id = "CVE-2019-10192";
      cve_desc = "SETRANGE, heap-buffer overflow";
      cve_exploit = "SETRANGE greeting 999999 X\n";
      cve_profile = [ "SETRANGE greeting 1 x\n" ];
    };
    {
      cve_id = "CVE-2016-8339";
      cve_desc = "CONFIG SET, buffer overflow";
      cve_exploit = "CONFIG SET " ^ String.make 40 'Z' ^ "\n";
      cve_profile = [ "CONFIG SET small\n"; "CONFIG GET x\n" ];
    };
  ]

let probe_outcome (c : Workload.ctx) (reply : string) : outcome =
  match (Machine.proc_exn c.Workload.m c.Workload.pid).Proc.state with
  | Proc.Killed _ -> Crashed
  | Proc.Exited _ -> Crashed
  | _ ->
      if reply = "-ERR unknown command" then Refused
      else
        let info = Workload.rpc c "INFO\n" in
        let corrupted =
          let sub = "CORRUPTED" and n = String.length info in
          let sl = String.length sub in
          let rec go i = i + sl <= n && (String.sub info i sl = sub || go (i + 1)) in
          go 0
        in
        if corrupted then Corrupted
        else if Workload.rpc c "GET greeting\n" <> "$hello" then
          (* store contents damaged (key or value overwritten) *)
          Corrupted
        else Survived_clean

let attack_vanilla (cve : cve) : outcome =
  let c = Workload.boot Workload.rkv in
  let reply = Workload.rpc c cve.cve_exploit in
  probe_outcome c reply

let attack_dynacut (cve : cve) : outcome * bool =
  let blocks = Common.rkv_feature_blocks cve.cve_profile in
  let c = Workload.boot Workload.rkv in
  let session = Dynacut.create c.Workload.m ~root_pid:c.Workload.pid in
  let _ =
    Dynacut.cut session ~blocks
      ~policy:{ Dynacut.method_ = `First_byte; on_trap = `Redirect "rkv_err" }
  in
  let reply = Workload.rpc c cve.cve_exploit in
  let o = probe_outcome c reply in
  (* wanted commands still served after the block *)
  let still_serves = Workload.rpc c "GET greeting\n" = "$hello" in
  (o, still_serves)

let run fmt =
  Common.section fmt "Table 1: Redis CVEs mitigated by feature blocking";
  let rows =
    List.map
      (fun cve ->
        let vanilla = attack_vanilla cve in
        let dc, serves = attack_dynacut cve in
        (cve, vanilla, dc, serves))
      cves
  in
  Format.fprintf fmt "%s@."
    (Table.render
       ~headers:[ "CVE"; "description"; "vanilla rkv"; "under DynaCut"; "GETs ok" ]
       ~aligns:[ Table.L; Table.L; Table.L; Table.L; Table.L ]
       (List.map
          (fun (cve, vanilla, dc, serves) ->
            [
              cve.cve_id;
              cve.cve_desc;
              outcome_to_string vanilla;
              outcome_to_string dc;
              (if serves then "yes" else "NO");
            ])
          rows));
  rows
