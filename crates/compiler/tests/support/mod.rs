pub mod diamonds;
