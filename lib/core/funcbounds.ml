(** Function-boundary recovery over SELF binaries.

    The redirect policy (§3.2.2) requires the blocked blocks and the
    error-path target to live in the same function, so sigreturn lands
    with a consistent stack. Symbols alone don't distinguish function
    entries from in-function labels, so we detect entries the way binary
    tools do: by the compiler's prologue idiom —
    [push rbp; mov rbp, rsp] — which MiniC emits at every function. *)

type t = { fb_starts : int array  (** sorted module-relative offsets *) }

(* encoded prologue: push rbp = 36 05; mov rbp, rsp = 01 54 *)
let prologue = [| 0x36; 0x05; 0x01; 0x54 |]

let of_self (exe : Self.t) : t =
  let starts = ref [] in
  List.iter
    (fun (s : Self.section) ->
      if s.Self.sec_prot.Self.p_x then begin
        let data = s.Self.sec_data in
        let n = Bytes.length data in
        (* stops at the first differing byte, allocating nothing *)
        let rec matches off k =
          k = Array.length prologue
          || (Char.code (Bytes.get data (off + k)) = prologue.(k) && matches off (k + 1))
        in
        for off = 0 to n - Array.length prologue do
          if matches off 0 then starts := (s.Self.sec_off + off) :: !starts
        done
      end)
    exe.Self.sections;
  { fb_starts = Array.of_list (List.sort compare !starts) }

(** Module-relative start of the function containing [off], if any. *)
let function_of (t : t) (off : int) : int option =
  let n = Array.length t.fb_starts in
  let rec bsearch lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if t.fb_starts.(mid) <= off then bsearch (mid + 1) hi (Some t.fb_starts.(mid))
      else bsearch lo (mid - 1) best
  in
  bsearch 0 (n - 1) None

(** The module-relative range [lo, hi) of the function containing [off],
    if any: from its entry to the next one ([max_int] for the last). *)
let function_range (t : t) (off : int) : (int * int) option =
  Option.map
    (fun lo ->
      let next = Array.find_opt (fun s -> s > lo) t.fb_starts in
      (lo, Option.value ~default:max_int next))
    (function_of t off)
