(** MiniC code generator: AST to {!Asm} items.

    A deliberately simple stack-machine lowering: every expression leaves
    its value in [rax], binary operators evaluate left-push-right-pop.
    Correctness over cleverness — the point is the *shape* of the output:

    - each [Switch] becomes a compare/branch dispatcher whose case bodies
      and default label all live in one function (the paper's §3.2.2
      precondition for signal-handler IP redirection);
    - every call to an undefined (libc) function becomes a [Call_sym] that
      the linker routes through a PLT stub;
    - [Label] statements become exported symbols so experiments can name
      redirect targets and feature entry points. *)

open Ast

exception Compile_error of string

type ctx = {
  unit_name : string;
  func_align : int;
  mutable items : Asm.item list;  (** reversed *)
  mutable fresh : int;
  strings : (string, string) Hashtbl.t;  (** literal -> rodata label *)
  mutable locals : (string * int) list;  (** name -> slot index *)
  mutable nslots : int;
  mutable breaks : string list;
  mutable conts : string list;
  mutable fn : string;
}

let emit c it = c.items <- it :: c.items
let ins c i = emit c (Asm.Ins i)

let fresh_label c hint =
  c.fresh <- c.fresh + 1;
  Printf.sprintf ".L$%s$%s%d" c.fn hint c.fresh

let str_label c lit =
  match Hashtbl.find_opt c.strings lit with
  | Some l -> l
  | None ->
      let l = Printf.sprintf ".str$%d" (Hashtbl.length c.strings) in
      Hashtbl.add c.strings lit l;
      l

let slot_of c name = List.assoc_opt name c.locals

let add_local c name =
  match slot_of c name with
  | Some s -> s
  | None ->
      let s = c.nslots in
      c.nslots <- s + 1;
      c.locals <- (name, s) :: c.locals;
      s

let slot_disp slot = -8 * (slot + 1)

(* pre-scan a body to count local slots (so the prologue can reserve them
   before any Decl executes) *)
let rec scan_stmt c = function
  | Decl (n, _) -> ignore (add_local c n)
  | If (_, a, b) ->
      List.iter (scan_stmt c) a;
      List.iter (scan_stmt c) b
  | While (_, b) -> List.iter (scan_stmt c) b
  | Switch (_, cases, dflt) ->
      List.iter (fun (_, b) -> List.iter (scan_stmt c) b) cases;
      List.iter (scan_stmt c) dflt
  | Assign _ | Store _ | Return _ | Expr _ | Break | Continue | Label _ -> ()

let is_cmp = function
  | Lt | Le | Gt | Ge | Ult | Ugt | Eq | Ne -> true
  | _ -> false

let cond_of_binop = function
  | Lt -> Insn.Lt
  | Le -> Insn.Le
  | Gt -> Insn.Gt
  | Ge -> Insn.Ge
  | Ult -> Insn.Ult
  | Ugt -> Insn.Ugt
  | Eq -> Insn.Eq
  | Ne -> Insn.Ne
  | _ -> assert false

let rec compile_expr c (e : expr) =
  match e with
  | Int v -> ins c (Insn.Mov_ri (Reg.Rax, v))
  | Str lit -> emit c (Asm.Lea_sym (Reg.Rax, str_label c lit, 0))
  | Var n -> (
      match slot_of c n with
      | Some s -> ins c (Insn.Load (Reg.Rax, Reg.Rbp, slot_disp s))
      | None ->
          (* 64-bit global variable *)
          emit c (Asm.Lea_sym (Reg.R10, n, 0));
          ins c (Insn.Load (Reg.Rax, Reg.R10, 0)))
  | Addr n -> emit c (Asm.Lea_sym (Reg.Rax, n, 0))
  | Unop (Neg, e) ->
      compile_expr c e;
      ins c (Insn.Neg Reg.Rax)
  | Unop (Bitnot, e) ->
      compile_expr c e;
      ins c (Insn.Not Reg.Rax)
  | Unop (Lognot, e) ->
      compile_expr c e;
      let l = fresh_label c "not" in
      ins c (Insn.Cmp_ri (Reg.Rax, 0));
      ins c (Insn.Mov_ri (Reg.Rax, 1L));
      emit c (Asm.Jcc_sym (Insn.Eq, l));
      ins c (Insn.Mov_ri (Reg.Rax, 0L));
      emit c (Asm.Label l)
  | Binop (Land, a, b) ->
      let lfalse = fresh_label c "andF" and lend = fresh_label c "andE" in
      compile_expr c a;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Eq, lfalse));
      compile_expr c b;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Eq, lfalse));
      ins c (Insn.Mov_ri (Reg.Rax, 1L));
      emit c (Asm.Jmp_sym lend);
      emit c (Asm.Label lfalse);
      ins c (Insn.Mov_ri (Reg.Rax, 0L));
      emit c (Asm.Label lend)
  | Binop (Lor, a, b) ->
      let ltrue = fresh_label c "orT" and lend = fresh_label c "orE" in
      compile_expr c a;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Ne, ltrue));
      compile_expr c b;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Ne, ltrue));
      ins c (Insn.Mov_ri (Reg.Rax, 0L));
      emit c (Asm.Jmp_sym lend);
      emit c (Asm.Label ltrue);
      ins c (Insn.Mov_ri (Reg.Rax, 1L));
      emit c (Asm.Label lend)
  | Binop (op, a, b) when is_cmp op ->
      binop_operands c a b;
      let l = fresh_label c "cc" in
      ins c (Insn.Cmp_rr (Reg.Rax, Reg.Rcx));
      ins c (Insn.Mov_ri (Reg.Rax, 1L));
      emit c (Asm.Jcc_sym (cond_of_binop op, l));
      ins c (Insn.Mov_ri (Reg.Rax, 0L));
      emit c (Asm.Label l)
  | Binop (op, a, b) ->
      binop_operands c a b;
      let i =
        match op with
        | Add -> Insn.Add_rr (Reg.Rax, Reg.Rcx)
        | Sub -> Insn.Sub_rr (Reg.Rax, Reg.Rcx)
        | Mul -> Insn.Imul_rr (Reg.Rax, Reg.Rcx)
        | Div -> Insn.Idiv_rr (Reg.Rax, Reg.Rcx)
        | Mod -> Insn.Imod_rr (Reg.Rax, Reg.Rcx)
        | Band -> Insn.And_rr (Reg.Rax, Reg.Rcx)
        | Bor -> Insn.Or_rr (Reg.Rax, Reg.Rcx)
        | Bxor -> Insn.Xor_rr (Reg.Rax, Reg.Rcx)
        | Shl -> Insn.Shl_rr (Reg.Rax, Reg.Rcx)
        | Shr -> Insn.Shr_rr (Reg.Rax, Reg.Rcx)
        | _ -> assert false
      in
      ins c i
  | Deref (W64, a) ->
      compile_expr c a;
      ins c (Insn.Load (Reg.Rax, Reg.Rax, 0))
  | Deref (W8, a) ->
      compile_expr c a;
      ins c (Insn.Load8 (Reg.Rax, Reg.Rax, 0))
  | Call (f, args) ->
      compile_args c args;
      emit c (Asm.Call_sym f)
  | Callp (fp, args) ->
      compile_expr c fp;
      ins c (Insn.Push Reg.Rax);
      compile_args c args ~extra_pop:(fun () -> ins c (Insn.Pop Reg.R11));
      ins c (Insn.Call_r Reg.R11)

(* evaluate a then b, leaving a in rax, b in rcx *)
and binop_operands c a b =
  compile_expr c a;
  ins c (Insn.Push Reg.Rax);
  compile_expr c b;
  ins c (Insn.Mov_rr (Reg.Rcx, Reg.Rax));
  ins c (Insn.Pop Reg.Rax)

(* Push all arg values, then pop them into the argument registers in
   reverse. [extra_pop] runs after args are popped, before the call —
   used by Callp to fetch the saved function pointer. *)
and compile_args c ?(extra_pop = fun () -> ()) args =
  let n = List.length args in
  if n > List.length Reg.args then
    raise (Compile_error (Printf.sprintf "%s: too many arguments (%d)" c.fn n));
  List.iter
    (fun a ->
      compile_expr c a;
      ins c (Insn.Push Reg.Rax))
    args;
  List.iteri
    (fun i _ ->
      let reg = List.nth Reg.args (n - 1 - i) in
      ins c (Insn.Pop reg))
    args;
  extra_pop ()

let rec compile_stmt c (s : stmt) =
  match s with
  | Decl (n, e) ->
      let slot = add_local c n in
      compile_expr c e;
      ins c (Insn.Store (Reg.Rbp, slot_disp slot, Reg.Rax))
  | Assign (n, e) -> (
      compile_expr c e;
      match slot_of c n with
      | Some slot -> ins c (Insn.Store (Reg.Rbp, slot_disp slot, Reg.Rax))
      | None ->
          emit c (Asm.Lea_sym (Reg.R10, n, 0));
          ins c (Insn.Store (Reg.R10, 0, Reg.Rax)))
  | Store (w, addr, value) -> (
      compile_expr c addr;
      ins c (Insn.Push Reg.Rax);
      compile_expr c value;
      ins c (Insn.Mov_rr (Reg.Rcx, Reg.Rax));
      ins c (Insn.Pop Reg.Rax);
      match w with
      | W64 -> ins c (Insn.Store (Reg.Rax, 0, Reg.Rcx))
      | W8 -> ins c (Insn.Store8 (Reg.Rax, 0, Reg.Rcx)))
  | If (cond, then_, else_) ->
      let lelse = fresh_label c "else" and lend = fresh_label c "fi" in
      compile_expr c cond;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Eq, lelse));
      List.iter (compile_stmt c) then_;
      emit c (Asm.Jmp_sym lend);
      emit c (Asm.Label lelse);
      List.iter (compile_stmt c) else_;
      emit c (Asm.Label lend)
  | While (cond, body) ->
      let ltop = fresh_label c "loop" and lend = fresh_label c "pool" in
      c.breaks <- lend :: c.breaks;
      c.conts <- ltop :: c.conts;
      emit c (Asm.Label ltop);
      compile_expr c cond;
      ins c (Insn.Test_rr (Reg.Rax, Reg.Rax));
      emit c (Asm.Jcc_sym (Insn.Eq, lend));
      List.iter (compile_stmt c) body;
      emit c (Asm.Jmp_sym ltop);
      emit c (Asm.Label lend);
      c.breaks <- List.tl c.breaks;
      c.conts <- List.tl c.conts
  | Switch (scrut, cases, dflt) ->
      let lend = fresh_label c "esw" in
      let ldflt = fresh_label c "dfl" in
      let case_labels = List.map (fun (k, _) -> (k, fresh_label c "case")) cases in
      compile_expr c scrut;
      (* the dispatcher: a chain of cmp/je — one distinct edge per feature *)
      List.iter
        (fun (k, lbl) ->
          if k < -0x8000_0000 || k > 0x7fff_ffff then
            raise (Compile_error "switch case key out of 32-bit range");
          ins c (Insn.Cmp_ri (Reg.Rax, k));
          emit c (Asm.Jcc_sym (Insn.Eq, lbl)))
        case_labels;
      emit c (Asm.Jmp_sym ldflt);
      List.iter2
        (fun (_, body) (_, lbl) ->
          emit c (Asm.Label lbl);
          List.iter (compile_stmt c) body;
          emit c (Asm.Jmp_sym lend))
        cases case_labels;
      emit c (Asm.Label ldflt);
      List.iter (compile_stmt c) dflt;
      emit c (Asm.Label lend)
  | Return e ->
      compile_expr c e;
      emit c (Asm.Jmp_sym (Printf.sprintf ".L$%s$ret" c.fn))
  | Expr e -> compile_expr c e
  | Break -> (
      match c.breaks with
      | l :: _ -> emit c (Asm.Jmp_sym l)
      | [] -> raise (Compile_error (c.fn ^ ": break outside loop")))
  | Continue -> (
      match c.conts with
      | l :: _ -> emit c (Asm.Jmp_sym l)
      | [] -> raise (Compile_error (c.fn ^ ": continue outside loop")))
  | Label name ->
      emit c (Asm.Global name);
      emit c (Asm.Label name)

let compile_func c (f : func) =
  c.fn <- f.fname;
  if List.length f.params > List.length Reg.args then
    raise
      (Compile_error
         (Printf.sprintf "%s: too many parameters (%d; max %d)" f.fname
            (List.length f.params) (List.length Reg.args)));
  c.locals <- [];
  c.nslots <- 0;
  c.breaks <- [];
  c.conts <- [];
  List.iter (fun p -> ignore (add_local c p)) f.params;
  List.iter (scan_stmt c) f.body;
  emit c (Asm.Align c.func_align);
  emit c (Asm.Global f.fname);
  emit c (Asm.Label f.fname);
  (* prologue *)
  ins c (Insn.Push Reg.Rbp);
  ins c (Insn.Mov_rr (Reg.Rbp, Reg.Rsp));
  if c.nslots > 0 then ins c (Insn.Sub_ri (Reg.Rsp, 8 * c.nslots));
  List.iteri
    (fun i p ->
      let slot = match slot_of c p with Some s -> s | None -> assert false in
      ins c (Insn.Store (Reg.Rbp, slot_disp slot, List.nth Reg.args i)))
    f.params;
  List.iter (compile_stmt c) f.body;
  (* implicit return 0 *)
  ins c (Insn.Mov_ri (Reg.Rax, 0L));
  emit c (Asm.Label (Printf.sprintf ".L$%s$ret" c.fn));
  ins c (Insn.Mov_rr (Reg.Rsp, Reg.Rbp));
  ins c (Insn.Pop Reg.Rbp);
  ins c Insn.Ret

let compile_global c (g : global) =
  emit c (Asm.Align 8);
  emit c (Asm.Global g.gname);
  emit c (Asm.Label g.gname);
  match g.ginit with
  | Zeroed n -> emit c (Asm.Zeros n)
  | Qwords ws -> List.iter (fun w -> emit c (Asm.Word64 w)) ws
  | Gbytes s -> emit c (Asm.Str s)
  | Gaddrs syms -> List.iter (fun s -> emit c (Asm.Addr64 (s, 0))) syms

(** Compile a unit to assembler items (text, rodata, data). Extra raw
    items (e.g. a crt0 [_start]) can be appended by the caller before
    assembly.

    [func_align] aligns every function entry; the default (16) matches
    ordinary compilers. Passing 4096 gives the paper's §5 "separate each
    feature-related code block into separate memory pages" layout, which
    lets DynaCut unload a feature by unmapping its page — faster than
    patching every block with int3. *)
let compile_unit ?(func_align = 16) (u : comp_unit) : Asm.item list =
  let c =
    {
      unit_name = u.cu_name;
      func_align;
      items = [];
      fresh = 0;
      strings = Hashtbl.create 32;
      locals = [];
      nslots = 0;
      breaks = [];
      conts = [];
      fn = "";
    }
  in
  emit c (Asm.Section ".text");
  List.iter (compile_func c) u.funcs;
  (* string literals *)
  emit c (Asm.Section ".rodata");
  Hashtbl.iter
    (fun lit lbl ->
      emit c (Asm.Label lbl);
      emit c (Asm.Strz lit))
    c.strings;
  emit c (Asm.Section ".data");
  List.iter (compile_global c) u.globals;
  ignore c.unit_name;
  List.rev c.items
