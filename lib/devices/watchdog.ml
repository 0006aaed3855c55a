type target = Nmi_pin | Reset_pin

type t = {
  period : int;
  target : target;
  mutable counter : int;
  mutable fired : int;
}

let create ~period ~target =
  if period <= 0 then invalid_arg "Watchdog.create: period must be positive";
  { period; target; counter = period; fired = 0 }

let fire wd cpu =
  wd.fired <- wd.fired + 1;
  match wd.target with
  | Nmi_pin -> Ssx.Cpu.raise_nmi cpu
  | Reset_pin -> cpu.Ssx.Cpu.reset_pin <- true

let tick wd cpu =
  (* Clamp first: an arbitrarily corrupted register still yields a
     signal within one period. *)
  if wd.counter > wd.period || wd.counter < 0 then wd.counter <- wd.period;
  if wd.counter <= 1 then begin
    fire wd cpu;
    wd.counter <- wd.period
  end
  else wd.counter <- wd.counter - 1

let pet wd = wd.counter <- wd.period

(* Quiescence window for the block compiler's quiet runner: with the
   counter clamped into range, the next [counter - 1] ticks are pure
   decrements — no pin can be raised before the tick that reaches 1.
   Nothing can pet the watchdog mid-window ([pet] is wired to port I/O,
   which ends a quiescence window), so [advance n] — clamp once,
   subtract [n] — lands on exactly the state [n] individual ticks
   would. *)
let quiescent wd () =
  let c = if wd.counter > wd.period || wd.counter < 0 then wd.period else wd.counter in
  if c <= 1 then 0 else c - 1

let advance wd n =
  if wd.counter > wd.period || wd.counter < 0 then wd.counter <- wd.period;
  wd.counter <- wd.counter - n

let device wd =
  Ssx.Device.make ~name:"watchdog" ~quiescent:(quiescent wd)
    ~advance:(advance wd) ~tick:(tick wd) ()

let resettable wd () =
  let counter = wd.counter and fired = wd.fired in
  fun () ->
    wd.counter <- counter;
    wd.fired <- fired
let counter wd = wd.counter
let corrupt wd v = wd.counter <- v
let period wd = wd.period
let fired_count wd = wd.fired
let counts wd = [ ("device.watchdog.bites", wd.fired) ]
