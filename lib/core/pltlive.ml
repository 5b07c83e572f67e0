(** PLT-entry liveness analysis (paper §4.2, "Attack surface reduction").

    The SELF linker records every PLT stub (extern function → stub
    offset). Combining that map with coverage graphs tells us which PLT
    entries were *executed*, which were only used during initialization,
    and which remain reachable after DynaCut removes the init-only code —
    reproducing the "43 out of 56 executed PLT entries removed in Nginx"
    analysis and the ret2plt / BROP arguments. *)

type plt_entry = {
  pe_name : string;  (** the libc function the stub resolves to *)
  pe_off : int;  (** module-relative stub offset *)
  pe_executed : bool;
  pe_init_only : bool;  (** executed during init but not during serving *)
}

type report = {
  pr_module : string;
  pr_entries : plt_entry list;
}

let plt_stub_size = Link.plt_stub_size

(** Was any covered block inside [stub, stub + stub_size)? *)
let covers (g : Covgraph.t) ~module_ ~stub =
  List.exists
    (fun (b : Covgraph.block) ->
      b.Covgraph.b_module = module_
      && b.Covgraph.b_off >= stub
      && b.Covgraph.b_off < stub + plt_stub_size)
    (Covgraph.blocks g)

(** Analyse [exe]'s PLT against initialization and serving coverage. *)
let analyse (exe : Self.t) ~(init : Covgraph.t) ~(serving : Covgraph.t) : report =
  let entries =
    List.map
      (fun (name, stub) ->
        let in_init = covers init ~module_:exe.Self.name ~stub in
        let in_serving = covers serving ~module_:exe.Self.name ~stub in
        {
          pe_name = name;
          pe_off = stub;
          pe_executed = in_init || in_serving;
          pe_init_only = in_init && not in_serving;
        })
      exe.Self.plt
  in
  { pr_module = exe.Self.name; pr_entries = entries }

let executed r = List.filter (fun e -> e.pe_executed) r.pr_entries
let removable r = List.filter (fun e -> e.pe_init_only) r.pr_entries

(** The init-only PLT stubs as coverage blocks, so they can be fed
    straight into {!Dynacut.cut}. *)
let removable_blocks (r : report) : Covgraph.block list =
  List.map
    (fun e ->
      { Covgraph.b_module = r.pr_module; b_off = e.pe_off; b_size = plt_stub_size })
    (removable r)

(** Is the PLT entry for [name] (e.g. ["fork"]) still reachable after the
    removal — the BROP-viability question. *)
let survives r name =
  List.exists (fun e -> e.pe_name = name && e.pe_executed && not e.pe_init_only)
    r.pr_entries
