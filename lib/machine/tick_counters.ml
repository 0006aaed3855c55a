(* Plain-int per-machine event accounting: free on the tick path, and
   the block-compiled run loops bump the fields once per straight-line
   block. *)

type t = {
  mutable ticks : int;
  mutable executed : int;
  mutable interrupts : int;
  mutable nmis : int;
  mutable exceptions : int;
  mutable idle : int;
  mutable resets : int;
}

let make () =
  { ticks = 0; executed = 0; interrupts = 0; nmis = 0; exceptions = 0;
    idle = 0; resets = 0 }

let note t (event : Cpu.event) =
  t.ticks <- t.ticks + 1;
  match event with
  | Cpu.Executed _ -> t.executed <- t.executed + 1
  | Cpu.Took_interrupt { nmi = true; _ } -> t.nmis <- t.nmis + 1
  | Cpu.Took_interrupt _ -> t.interrupts <- t.interrupts + 1
  | Cpu.Took_exception _ -> t.exceptions <- t.exceptions + 1
  | Cpu.Halted_idle -> t.idle <- t.idle + 1
  | Cpu.Did_reset -> t.resets <- t.resets + 1
