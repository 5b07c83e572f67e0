(** General-purpose registers of the vx86 virtual ISA.

    vx86 mirrors x86-64's register file: 16 64-bit GPRs with the same
    calling-convention roles (args in [rdi; rsi; rdx; rcx; r8; r9], return
    value and syscall number in [rax], stack pointer [rsp], frame pointer
    [rbp]). [r11] is the scratch register the linker-generated PLT stubs
    clobber, matching the SysV convention. *)

type t =
  | Rax
  | Rcx
  | Rdx
  | Rbx
  | Rsp
  | Rbp
  | Rsi
  | Rdi
  | R8
  | R9
  | R10
  | R11
  | R12
  | R13
  | R14
  | R15

let all =
  [ Rax; Rcx; Rdx; Rbx; Rsp; Rbp; Rsi; Rdi; R8; R9; R10; R11; R12; R13; R14; R15 ]

(* A constant constructor is represented by its index in the type
   declaration, which is its index in [all]: the primitive makes a
   register operand's index free at every call site, including across
   modules. *)
external to_int : t -> int = "%identity"

let of_int = function
  | 0 -> Rax
  | 1 -> Rcx
  | 2 -> Rdx
  | 3 -> Rbx
  | 4 -> Rsp
  | 5 -> Rbp
  | 6 -> Rsi
  | 7 -> Rdi
  | 8 -> R8
  | 9 -> R9
  | 10 -> R10
  | 11 -> R11
  | 12 -> R12
  | 13 -> R13
  | 14 -> R14
  | 15 -> R15
  | n -> invalid_arg (Printf.sprintf "Reg.of_int: %d" n)

let name = function
  | Rax -> "rax"
  | Rcx -> "rcx"
  | Rdx -> "rdx"
  | Rbx -> "rbx"
  | Rsp -> "rsp"
  | Rbp -> "rbp"
  | Rsi -> "rsi"
  | Rdi -> "rdi"
  | R8 -> "r8"
  | R9 -> "r9"
  | R10 -> "r10"
  | R11 -> "r11"
  | R12 -> "r12"
  | R13 -> "r13"
  | R14 -> "r14"
  | R15 -> "r15"

let pp fmt r = Format.pp_print_string fmt (name r)

(** Integer-argument registers in calling-convention order. *)
let args = [ Rdi; Rsi; Rdx; Rcx; R8; R9 ]

(** Callee-saved registers (the MiniC compiler preserves these). *)
let callee_saved = [ Rbx; Rbp; R12; R13; R14; R15 ]

let equal (a : t) (b : t) = a = b
