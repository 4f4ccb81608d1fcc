type t =
  | Sequential
  | Random
  | Willneed of { page : int; npages : int }
  | Dontneed of { page : int; npages : int }
